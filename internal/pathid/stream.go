package pathid

import (
	"sort"

	"repro/internal/trace"
)

// TransitionCounter accumulates the Eq. 3 transition statistics one run at
// a time: interned location occurrence counts, ordered-pair counts, final
// locations, and fault-function votes. It holds counters only — never the
// runs — so graph mining over an on-disk corpus is a bounded-memory pass,
// and the pipeline feeds it in the same pass as the predicate analyzer.
// Locations are interned to dense ids in first-seen order, so pair counting
// keys on [2]int32 (string keys cost two allocations per logged transition
// — the dominant cost of graph construction on large corpora); graph
// assembly sorts everything else, so the graph depends only on run order.
type TransitionCounter struct {
	ids        map[trace.Location]int32
	nodes      []trace.Location
	occ        []int // occurrence count, indexed by interned id
	pair       map[[2]int32]int
	finals     map[trace.Location]int
	faultFuncs map[string]int
}

// NewTransitionCounter returns an empty counter.
func NewTransitionCounter() *TransitionCounter {
	return &TransitionCounter{
		ids:        make(map[trace.Location]int32),
		pair:       make(map[[2]int32]int),
		finals:     make(map[trace.Location]int),
		faultFuncs: make(map[string]int),
	}
}

func (t *TransitionCounter) intern(l trace.Location) int32 {
	id, ok := t.ids[l]
	if !ok {
		id = int32(len(t.nodes))
		t.ids[l] = id
		t.nodes = append(t.nodes, l)
		t.occ = append(t.occ, 0)
	}
	return id
}

// Add folds one run into the counters. Correct runs are ignored — the
// paper mines transitions from faulty logs only (§V-B).
func (t *TransitionCounter) Add(run *trace.Run) {
	if !run.Faulty {
		return
	}
	if run.FaultFunc != "" {
		t.faultFuncs[run.FaultFunc]++
	}
	prev := int32(-1)
	for _, rec := range run.Records {
		id := t.intern(rec.Loc)
		t.occ[id]++
		if prev >= 0 {
			t.pair[[2]int32{prev, id}]++
		}
		prev = id
	}
	if fin, ok := run.FinalLocation(); ok {
		t.finals[fin]++
	}
}

// Graph assembles the transition graph from the accumulated counters.
// Deterministic: successor lists and entries are sorted, and the
// failure-point tie-breaks are value-based.
func (t *TransitionCounter) Graph(cfg Config) *Graph {
	g := &Graph{Nodes: t.nodes, Succ: make(map[trace.Location][]Edge)}
	hasIncoming := make(map[trace.Location]bool)
	for key, count := range t.pair {
		if count < cfg.minSupport() {
			continue
		}
		conf := float64(count) / float64(t.occ[key[0]])
		if conf < cfg.minConfidence() {
			continue
		}
		e := Edge{From: t.nodes[key[0]], To: t.nodes[key[1]], Count: count, Confidence: conf}
		g.Succ[e.From] = append(g.Succ[e.From], e)
		hasIncoming[e.To] = true
	}
	for from := range g.Succ {
		es := g.Succ[from]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Confidence != es[j].Confidence {
				return es[i].Confidence > es[j].Confidence
			}
			return es[i].To.String() < es[j].To.String()
		})
	}
	for _, n := range g.Nodes {
		if !hasIncoming[n] {
			g.Entries = append(g.Entries, n)
		}
	}
	sort.Slice(g.Entries, func(i, j int) bool { return g.Entries[i].String() < g.Entries[j].String() })
	// Failure point: the crash report names the faulting function (§II:
	// the failure point is where the crash manifests), so its entry
	// location is the target — provided the sampled logs ever observed
	// it. Fall back to the modal final location of faulty runs when no
	// fault function was recorded or its entry never got sampled.
	bestFault := ""
	bestCount := 0
	for fn, c := range t.faultFuncs {
		if c > bestCount || (c == bestCount && fn < bestFault) {
			bestFault, bestCount = fn, c
		}
	}
	if bestFault != "" {
		enter := trace.Location{Func: bestFault, Kind: trace.EventEnter}
		if _, ok := t.ids[enter]; ok {
			g.Failure = enter
			return g
		}
	}
	best := -1
	for _, n := range g.Nodes {
		if c := t.finals[n]; c > best {
			best = c
			g.Failure = n
		}
	}
	return g
}
