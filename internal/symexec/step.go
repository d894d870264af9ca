package symexec

import (
	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/solver"
	"repro/internal/trace"
)

// step executes one instruction of st, KLEE's
// stepInstruction/executeInstruction loop. It returns any forked children,
// whether the state was suspended by the guidance hook, and whether the
// state finished (terminated, faulted, or proven infeasible).
func (ex *Executor) step(st *State) (children []*State, suspend, done bool) {
	ex.res.Steps++
	fr := st.Top()
	ex.recordVisit(fr.Fn.Index, fr.PC)
	in := fr.Fn.Code[fr.PC]
	fr.PC++
	switch in.Op {
	case bytecode.OpNop:

	case bytecode.OpConstInt:
		st.push(IntVal(in.Imm))
	case bytecode.OpConstStr:
		st.push(StrVal(in.Str))
	case bytecode.OpLoadLocal:
		st.push(fr.Locals[in.A])
	case bytecode.OpStoreLocal:
		fr.Locals[in.A] = st.pop()
	case bytecode.OpLoadGlobal:
		st.push(st.Globals[in.A])
	case bytecode.OpStoreGlobal:
		st.ensureGlobalsOwned()
		st.Globals[in.A] = st.pop()
	case bytecode.OpNewBuf:
		fr.Locals[in.A] = BufVal(NewSymBuffer(in.B))

	case bytecode.OpNeg:
		v := st.pop()
		st.push(LinVal(v.Lin.Neg()))
	case bytecode.OpNot:
		v := st.pop()
		if c, ok := v.IsConcreteInt(); ok {
			if c == 0 {
				st.push(IntVal(1))
			} else {
				st.push(IntVal(0))
			}
			break
		}
		// !x is the comparison x == 0.
		return ex.pushBool(st, solver.Constraint{E: v.Lin, Op: solver.OpEq})

	case bytecode.OpBin:
		return ex.stepBin(st, minic.BinOp(in.A), in.Pos)

	case bytecode.OpJump:
		fr.PC = in.A
	case bytecode.OpJumpZ, bytecode.OpJumpNZ:
		return ex.stepJump(st, in)

	case bytecode.OpCall:
		callee := ex.Prog.Funcs[in.A]
		if len(st.Frames) >= ex.Opts.MaxDepth {
			// Depth exhaustion cuts the path (KLEE would keep unrolling; our
			// apps are not deeply recursive) — recorded under its own status
			// and counter so truncation is distinguishable from normal exit.
			st.Status = StatusDepthExhausted
			ex.res.DepthExhausted++
			return nil, false, true
		}
		args := make([]Value, in.B)
		for i := in.B - 1; i >= 0; i-- {
			args[i] = st.pop()
		}
		if s := ex.Opts.Calls; s != nil {
			children, suspend, done, handled := s.OnCall(ex, st, callee, args)
			if handled {
				return children, suspend, done
			}
		}
		nf := &Frame{Fn: callee, Locals: make([]Value, callee.NumLocals)}
		copy(nf.Locals, args)
		st.Frames = append(st.Frames, nf)
		dec := ex.fireLocation(st, trace.Location{Func: callee.Name, Kind: trace.EventEnter}, nil)
		if dec == HookSuspend {
			return nil, true, false
		}

	case bytecode.OpReturn:
		var ret Value
		var retPtr *Value
		if in.A == 1 {
			ret = st.pop()
			retPtr = &ret
		}
		fnName := fr.Fn.Name
		if fnName != bytecode.InitFuncName {
			dec := ex.fireLocation(st, trace.Location{Func: fnName, Kind: trace.EventLeave}, retPtr)
			if dec == HookSuspend {
				// Complete the return first so the state resumes cleanly.
				st.Frames = st.Frames[:len(st.Frames)-1]
				if len(st.Frames) == 0 {
					st.Status = StatusTerminated
					return nil, false, true
				}
				st.ensureTopOwned()
				if retPtr != nil {
					st.push(ret)
				}
				return nil, true, false
			}
		}
		st.Frames = st.Frames[:len(st.Frames)-1]
		if len(st.Frames) == 0 {
			st.Status = StatusTerminated
			return nil, false, true
		}
		st.ensureTopOwned()
		if retPtr != nil {
			st.push(ret)
		}

	case bytecode.OpBuiltin:
		return ex.stepBuiltin(st, minic.Builtin(in.A), in.B, in.Pos)

	case bytecode.OpPop:
		st.pop()
	}
	return nil, false, false
}

// pushBool delivers a comparison outcome. When the next instruction is a
// conditional jump the constraint is deferred (the jump forks); otherwise
// the state forks now: the current state takes the true branch (value 1),
// the child takes the false branch (value 0).
func (ex *Executor) pushBool(st *State, c solver.Constraint) (children []*State, suspend, done bool) {
	fr := st.Top()
	if fr.PC < len(fr.Fn.Code) {
		next := fr.Fn.Code[fr.PC].Op
		if next == bytecode.OpJumpZ || next == bytecode.OpJumpNZ {
			st.push(CondVal(c))
			return nil, false, false
		}
	}
	neg := c.Negate()
	okT, mT := ex.satisfiable(st, c)
	okF, mF := ex.satisfiable(st, neg)
	switch {
	case okT && okF:
		// Model-directed forking: the current state follows the branch
		// its cached model already satisfies (cheap, and lets seeded
		// models steer exploration); the fork child takes the other side.
		child := st.fork()
		if st.LastModel != nil && neg.Holds(st.LastModel) {
			ex.commit(child, mT, c)
			child.push(IntVal(1))
			child.Depth++
			ex.commit(st, mF, neg)
			st.push(IntVal(0))
		} else {
			ex.commit(child, mF, neg)
			child.push(IntVal(0))
			child.Depth++
			ex.commit(st, mT, c)
			st.push(IntVal(1))
		}
		st.Depth++
		ex.res.Forks++
		return []*State{child}, false, false
	case okT:
		ex.commit(st, mT, c)
		st.push(IntVal(1))
	case okF:
		ex.commit(st, mF, neg)
		st.push(IntVal(0))
	default:
		st.Status = StatusInfeasible
		return nil, false, true
	}
	return nil, false, false
}

// stepJump handles OpJumpZ/OpJumpNZ, the fork point of the engine.
func (ex *Executor) stepJump(st *State, in bytecode.Instr) (children []*State, suspend, done bool) {
	fr := st.Top()
	v := st.pop()
	if c, ok := v.IsConcreteInt(); ok {
		isZero := c == 0
		if (in.Op == bytecode.OpJumpZ && isZero) || (in.Op == bytecode.OpJumpNZ && !isZero) {
			fr.PC = in.A
		}
		return nil, false, false
	}
	// Symbolic condition: nonZero is the constraint for "value != 0".
	var nonZero solver.Constraint
	if v.IsCond {
		nonZero = v.Cond
	} else {
		nonZero = solver.Constraint{E: v.Lin, Op: solver.OpNe}
	}
	zero := nonZero.Negate()

	// For JumpZ: fall-through ⇔ value != 0; jump ⇔ value == 0.
	// For JumpNZ the roles swap.
	stayCond, jumpCond := nonZero, zero
	if in.Op == bytecode.OpJumpNZ {
		stayCond, jumpCond = zero, nonZero
	}
	okStay, mStay := ex.satisfiable(st, stayCond)
	okJump, mJump := ex.satisfiable(st, jumpCond)
	switch {
	case okStay && okJump:
		// Model-directed forking (see pushBool): the current state takes
		// the direction its cached model satisfies.
		child := st.fork()
		if st.LastModel != nil && jumpCond.Holds(st.LastModel) {
			ex.commit(child, mStay, stayCond)
			child.Depth++
			ex.commit(st, mJump, jumpCond)
			fr.PC = in.A
		} else {
			ex.commit(child, mJump, jumpCond)
			child.Top().PC = in.A
			child.Depth++
			ex.commit(st, mStay, stayCond)
		}
		st.Depth++
		ex.res.Forks++
		return []*State{child}, false, false
	case okStay:
		ex.commit(st, mStay, stayCond)
	case okJump:
		ex.commit(st, mJump, jumpCond)
		fr.PC = in.A
	default:
		st.Status = StatusInfeasible
		return nil, false, true
	}
	return nil, false, false
}

// stepBin implements OpBin over symbolic values.
func (ex *Executor) stepBin(st *State, op minic.BinOp, pos minic.Pos) (children []*State, suspend, done bool) {
	r := st.pop()
	l := st.pop()

	// String operations.
	if l.Kind == KindString || r.Kind == KindString {
		switch op {
		case minic.OpAdd:
			st.push(ex.concatStrings(st, l.Str, r.Str))
			return nil, false, false
		case minic.OpEq:
			return ex.stringEq(st, l.Str, r.Str, 1, 0)
		case minic.OpNeq:
			return ex.stringEq(st, l.Str, r.Str, 0, 1)
		}
		return nil, false, false
	}

	lc, lok := l.IsConcreteInt()
	rc, rok := r.IsConcreteInt()

	switch op {
	case minic.OpAdd:
		st.push(LinVal(l.Lin.Add(r.Lin)))
	case minic.OpSub:
		st.push(LinVal(l.Lin.Sub(r.Lin)))
	case minic.OpMul:
		switch {
		case lok:
			st.push(LinVal(r.Lin.MulConst(lc)))
		case rok:
			st.push(LinVal(l.Lin.MulConst(rc)))
		default:
			// Nonlinear product: over-approximate with a fresh variable,
			// keeping the cached model consistent.
			fresh := ex.newVar("mul")
			if st.LastModel != nil {
				ex.extendModel(st, fresh, l.Lin.Eval(st.LastModel)*r.Lin.Eval(st.LastModel))
			}
			st.push(LinVal(solver.VarExpr(fresh)))
		}
	case minic.OpDiv, minic.OpMod:
		return ex.stepDivMod(st, op, l, r, pos)
	case minic.OpEq, minic.OpNeq, minic.OpLt, minic.OpLe, minic.OpGt, minic.OpGe:
		if lok && rok {
			st.push(IntVal(boolToInt(concreteCompare(op, lc, rc))))
			return nil, false, false
		}
		return ex.pushBool(st, compareConstraint(op, l.Lin, r.Lin))
	}
	return nil, false, false
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func concreteCompare(op minic.BinOp, a, b int64) bool {
	switch op {
	case minic.OpEq:
		return a == b
	case minic.OpNeq:
		return a != b
	case minic.OpLt:
		return a < b
	case minic.OpLe:
		return a <= b
	case minic.OpGt:
		return a > b
	case minic.OpGe:
		return a >= b
	}
	return false
}

func compareConstraint(op minic.BinOp, a, b solver.LinExpr) solver.Constraint {
	switch op {
	case minic.OpEq:
		return solver.Eq(a, b)
	case minic.OpNeq:
		return solver.Ne(a, b)
	case minic.OpLt:
		return solver.Lt(a, b)
	case minic.OpLe:
		return solver.Le(a, b)
	case minic.OpGt:
		return solver.Gt(a, b)
	default:
		return solver.Ge(a, b)
	}
}

// stepDivMod implements division and modulo. A constant positive divisor is
// modeled exactly with auxiliary quotient/remainder variables; a symbolic
// divisor triggers the division-by-zero oracle.
func (ex *Executor) stepDivMod(st *State, op minic.BinOp, l, r Value, pos minic.Pos) (children []*State, suspend, done bool) {
	lc, lok := l.IsConcreteInt()
	rc, rok := r.IsConcreteInt()
	if rok && rc == 0 {
		// Definite division by zero on this path.
		ok, m := ex.satisfiable(st)
		if ok {
			ex.report(st, interp.FaultDivZero, pos, m)
		}
		st.Status = StatusFaulted
		return nil, false, true
	}
	if lok && rok {
		if op == minic.OpDiv {
			st.push(IntVal(lc / rc))
		} else {
			st.push(IntVal(lc % rc))
		}
		return nil, false, false
	}
	if !rok {
		// Symbolic divisor: can it be zero?
		zero := solver.Constraint{E: r.Lin, Op: solver.OpEq}
		if ok, m := ex.satisfiable(st, zero); ok {
			ex.report(st, interp.FaultDivZero, pos, m, zero)
			if ex.stopped {
				return nil, false, false
			}
		}
		nz := zero.Negate()
		ok, m := ex.satisfiable(st, nz)
		if !ok {
			st.Status = StatusInfeasible
			return nil, false, true
		}
		ex.commit(st, m, nz)
		// Result over-approximated by a fresh variable.
		fresh := ex.newVar("divres")
		if st.LastModel != nil {
			den := r.Lin.Eval(st.LastModel)
			if den != 0 {
				num := l.Lin.Eval(st.LastModel)
				if op == minic.OpDiv {
					ex.extendModel(st, fresh, num/den)
				} else {
					ex.extendModel(st, fresh, num%den)
				}
			}
		}
		st.push(LinVal(solver.VarExpr(fresh)))
		return nil, false, false
	}
	// Symbolic dividend, constant divisor.
	if rc < 0 {
		// Rare in the evaluation programs; over-approximate.
		fresh := ex.newVar("divneg")
		st.push(LinVal(solver.VarExpr(fresh)))
		return nil, false, false
	}
	// l = q*rc + rem with 0 ≤ rem < rc (exact for non-negative dividends;
	// MiniC programs use non-negative operands with / and %).
	q := ex.newVar("q")
	rem := ex.newVarBounded("r", 0, rc-1)
	def := solver.Eq(l.Lin, solver.VarExpr(q).MulConst(rc).Add(solver.VarExpr(rem)))
	addPathConstraint(st, def)
	if st.LastModel != nil {
		lv := l.Lin.Eval(st.LastModel)
		qv := lv / rc
		rv := lv % rc
		if rv < 0 { // floor adjustment
			qv--
			rv += rc
		}
		nm := make(solver.Model, len(st.LastModel)+2)
		for k, v := range st.LastModel {
			nm[k] = v
		}
		nm[q] = qv
		nm[rem] = rv
		st.changeModel(nm, q, rem)
	}
	if op == minic.OpDiv {
		st.push(LinVal(solver.VarExpr(q)))
	} else {
		st.push(LinVal(solver.VarExpr(rem)))
	}
	return nil, false, false
}

// concatStrings implements string concatenation; symbolic operands yield a
// fresh symbolic string whose length is constrained to the sum.
func (ex *Executor) concatStrings(st *State, a, b *SymString) Value {
	if a.IsLit && b.IsLit {
		return StrVal(a.Lit + b.Lit)
	}
	maxLen := ex.strMaxLen(a) + ex.strMaxLen(b)
	out := ex.freshStr("concat", maxLen)
	sum := a.LenExpr().Add(b.LenExpr())
	addPathConstraint(st, solver.Eq(solver.VarExpr(out.LenVar), sum))
	if st.LastModel != nil {
		ex.extendModel(st, out.LenVar, sum.Eval(st.LastModel))
	}
	return SymStrVal(out)
}

// strMaxLen returns an upper bound for a string's length.
func (ex *Executor) strMaxLen(s *SymString) int64 {
	if s.IsLit {
		return int64(len(s.Lit))
	}
	info := ex.Table.Info(s.LenVar)
	if info.HasHi {
		return info.Hi
	}
	return DefaultMaxStrLen
}

// stringEq forks on string equality. The equal branch receives length (and,
// when one side is concrete, byte) constraints; the not-equal branch keeps
// the original path condition (a sound over-approximation for bug search).
func (ex *Executor) stringEq(st *State, a, b *SymString, eqVal, neqVal int64) (children []*State, suspend, done bool) {
	if a.IsLit && b.IsLit {
		if a.Lit == b.Lit {
			st.push(IntVal(eqVal))
		} else {
			st.push(IntVal(neqVal))
		}
		return nil, false, false
	}
	eqCons := []solver.Constraint{solver.Eq(a.LenExpr(), b.LenExpr())}
	// Byte constraints when one side is a literal.
	sym, lit := a, b
	if a.IsLit {
		sym, lit = b, a
	}
	if lit.IsLit && !sym.IsLit {
		n := len(lit.Lit)
		if sym.ByteStride != 0 && n > sym.ByteLen {
			// Literal longer than the symbolic string can ever be: the
			// length-equality constraint above is already unsatisfiable
			// against LenVar's upper bound, so the surplus byte constraints
			// are redundant — skip them rather than allocate out-of-block
			// byte variables through the nondeterministic overflow path.
			n = sym.ByteLen
		}
		for i := 0; i < n; i++ {
			bv := ex.inputs.byteVar(sym, int64(i))
			if sb, ok := ex.inputs.seededByte(sym.ID, int64(i)); ok {
				ex.seedModelValue(st, bv, sb)
			}
			eqCons = append(eqCons, solver.Eq(solver.VarExpr(bv), solver.ConstExpr(int64(lit.Lit[i]))))
		}
	}
	okEq, mEq := ex.satisfiable(st, eqCons...)
	if !okEq {
		st.push(IntVal(neqVal))
		return nil, false, false
	}
	// Fork, model-directed: when the cached model already satisfies the
	// equality (e.g. a seeded input took this branch), the current state
	// takes the equal side; otherwise it takes not-equal.
	child := st.fork()
	if st.LastModel != nil && allHold(eqCons, st.LastModel) {
		child.push(IntVal(neqVal))
		child.Depth++
		ex.commit(st, mEq, eqCons...)
		st.push(IntVal(eqVal))
	} else {
		ex.commit(child, mEq, eqCons...)
		child.push(IntVal(eqVal))
		child.Depth++
		st.push(IntVal(neqVal))
	}
	st.Depth++
	ex.res.Forks++
	return []*State{child}, false, false
}
