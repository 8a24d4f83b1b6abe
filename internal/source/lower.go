package source

import (
	"fmt"

	"repro/internal/ir"
)

// Lower translates a checked mini-C file into an IR program. Scalar
// locals whose address is never taken become virtual registers (they may
// be assigned multiple times; SSA construction renames them later).
// Address-taken locals, local arrays, and local structs become stack
// slots accessed with loads and stores, and globals are accessed with
// loads and stores against global cells — exactly the memory-resident
// names register promotion later tries to lift into registers.
func Lower(checked *Checked) (*ir.Program, error) {
	prog := ir.NewProgram()
	lw := &lowerer{checked: checked, prog: prog}

	for _, g := range checked.File.Globals {
		size := 1
		var fields []string
		isArray := false
		switch g.Type.Kind {
		case TypeArray:
			size = g.ArrayN
			isArray = true
		case TypeStruct:
			size = len(g.Type.Struct.Fields)
			fields = g.Type.Struct.Fields
		}
		og := prog.AddGlobal(g.Name, size, isArray, fields)
		og.Init = g.Init
		og.AddrTaken = g.AddrTaken
		g.Sym.obj = og
	}

	for _, fn := range checked.File.Funcs {
		if err := lw.lowerFunc(fn); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type lowerer struct {
	checked *Checked
	prog    *ir.Program

	f      *ir.Function
	cur    *ir.Block
	breaks []*ir.Block
	conts  []*ir.Block
}

func (lw *lowerer) emit(in *ir.Instr) *ir.Instr {
	lw.cur.Append(in)
	return in
}

// startBlock begins emitting into b.
func (lw *lowerer) startBlock(b *ir.Block) { lw.cur = b }

// jumpTo terminates the current block with a jump to b (if not already
// terminated) and makes b current.
func (lw *lowerer) jumpTo(b *ir.Block) {
	if lw.cur.Term() == nil {
		lw.emit(ir.NewInstr(ir.OpJmp, ir.NoReg))
		ir.AddEdge(lw.cur, b)
	}
	lw.startBlock(b)
}

// branchTo terminates the current block with `br cond, then, els`.
func (lw *lowerer) branchTo(cond ir.Value, then, els *ir.Block) {
	lw.emit(ir.NewInstr(ir.OpBr, ir.NoReg, cond))
	ir.AddEdge(lw.cur, then)
	ir.AddEdge(lw.cur, els)
}

func (lw *lowerer) lowerFunc(fn *FuncDecl) error {
	f := ir.NewFunction(lw.prog, fn.Name)
	lw.f = f
	lw.breaks = nil
	lw.conts = nil

	for _, p := range fn.Params {
		r := f.NewReg(p.Name)
		f.Params = append(f.Params, r)
		p.Sym.reg, p.Sym.inReg = r, true
	}

	entry := f.NewBlock()
	lw.startBlock(entry)
	if err := lw.lowerStmt(fn.Body); err != nil {
		return err
	}
	// Implicit return: void functions just return; int functions
	// falling off the end return 0 (deterministic, unlike C).
	if lw.cur.Term() == nil {
		if fn.Ret.Kind == TypeVoid {
			lw.emit(ir.NewInstr(ir.OpRet, ir.NoReg))
		} else {
			lw.emit(ir.NewInstr(ir.OpRet, ir.NoReg, ir.ConstVal(0)))
		}
	}
	return f.Verify(ir.VerifyCFG)
}

func (lw *lowerer) lowerStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		for _, st := range s.Stmts {
			if err := lw.lowerStmt(st); err != nil {
				return err
			}
		}
		return nil

	case *DeclStmt:
		sym := s.Sym
		switch {
		case sym.Type.Kind == TypeArray:
			sym.slot = lw.f.NewSlot(sym.Name, sym.ArrayN, true, nil)
		case sym.Type.Kind == TypeStruct:
			sym.slot = lw.f.NewSlot(sym.Name, len(sym.Type.Struct.Fields), false, sym.Type.Struct.Fields)
		case sym.AddrTaken:
			slot := lw.f.NewSlot(sym.Name, 1, false, nil)
			slot.AddrTaken = true
			sym.slot = slot
			init := ir.ConstVal(0)
			if s.Init != nil {
				v, err := lw.lowerExpr(s.Init)
				if err != nil {
					return err
				}
				init = v
			}
			st := ir.NewInstr(ir.OpStore, ir.NoReg, init)
			st.Loc = ir.SlotLoc(slot, 0)
			lw.emit(st)
		default:
			r := lw.f.NewReg(sym.Name)
			sym.reg, sym.inReg = r, true
			init := ir.ConstVal(0)
			if s.Init != nil {
				v, err := lw.lowerExpr(s.Init)
				if err != nil {
					return err
				}
				init = v
			}
			lw.emit(ir.NewInstr(ir.OpCopy, r, init))
		}
		return nil

	case *AssignStmt:
		return lw.lowerAssign(s)

	case *ExprStmt:
		_, err := lw.lowerExprOrVoid(s.X)
		return err

	case *IfStmt:
		cond, err := lw.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		then := lw.f.NewBlock()
		join := lw.f.NewBlock()
		els := join
		if s.Else != nil {
			els = lw.f.NewBlock()
		}
		lw.branchTo(cond, then, els)
		lw.startBlock(then)
		if err := lw.lowerStmt(s.Then); err != nil {
			return err
		}
		lw.jumpTo(join)
		if s.Else != nil {
			lw.startBlock(els)
			if err := lw.lowerStmt(s.Else); err != nil {
				return err
			}
			lw.jumpTo(join)
		}
		lw.startBlock(join)
		return nil

	case *WhileStmt:
		header := lw.f.NewBlock()
		body := lw.f.NewBlock()
		exit := lw.f.NewBlock()
		lw.jumpTo(header)
		cond, err := lw.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		lw.branchTo(cond, body, exit)
		lw.pushLoop(exit, header)
		lw.startBlock(body)
		if err := lw.lowerStmt(s.Body); err != nil {
			return err
		}
		lw.jumpTo(header)
		lw.popLoop()
		lw.startBlock(exit)
		return nil

	case *DoWhileStmt:
		body := lw.f.NewBlock()
		check := lw.f.NewBlock()
		exit := lw.f.NewBlock()
		lw.jumpTo(body)
		lw.pushLoop(exit, check)
		if err := lw.lowerStmt(s.Body); err != nil {
			return err
		}
		lw.popLoop()
		lw.jumpTo(check)
		cond, err := lw.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		lw.branchTo(cond, body, exit)
		lw.startBlock(exit)
		return nil

	case *ForStmt:
		if s.Init != nil {
			if err := lw.lowerStmt(s.Init); err != nil {
				return err
			}
		}
		header := lw.f.NewBlock()
		body := lw.f.NewBlock()
		post := lw.f.NewBlock()
		exit := lw.f.NewBlock()
		lw.jumpTo(header)
		if s.Cond != nil {
			cond, err := lw.lowerExpr(s.Cond)
			if err != nil {
				return err
			}
			lw.branchTo(cond, body, exit)
		} else {
			lw.jumpTo(body) // no condition: header falls through to body
		}
		lw.startBlock(body)
		lw.pushLoop(exit, post)
		if err := lw.lowerStmt(s.Body); err != nil {
			return err
		}
		lw.popLoop()
		lw.jumpTo(post)
		if s.Post != nil {
			if err := lw.lowerStmt(s.Post); err != nil {
				return err
			}
		}
		lw.jumpTo(header)
		// jumpTo made header current but header is already terminated;
		// continue in a fresh exit block.
		lw.startBlock(exit)
		return nil

	case *ReturnStmt:
		if s.X == nil {
			lw.emit(ir.NewInstr(ir.OpRet, ir.NoReg))
		} else {
			v, err := lw.lowerExpr(s.X)
			if err != nil {
				return err
			}
			lw.emit(ir.NewInstr(ir.OpRet, ir.NoReg, v))
		}
		// Code after a return is unreachable; emit into a scratch block
		// that RemoveUnreachable deletes.
		lw.startBlock(lw.f.NewBlock())
		return nil

	case *BreakStmt:
		lw.jumpTo(lw.breaks[len(lw.breaks)-1])
		lw.startBlock(lw.f.NewBlock())
		return nil

	case *ContinueStmt:
		lw.jumpTo(lw.conts[len(lw.conts)-1])
		lw.startBlock(lw.f.NewBlock())
		return nil

	case *EmptyStmt:
		return nil
	}
	return fmt.Errorf("unhandled statement %T", s)
}

func (lw *lowerer) pushLoop(brk, cont *ir.Block) {
	lw.breaks = append(lw.breaks, brk)
	lw.conts = append(lw.conts, cont)
}

func (lw *lowerer) popLoop() {
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]
}

// lvalueLoc computes where an assignment target lives. Exactly one of
// the returns is meaningful: a register, a direct location, an indexed
// location, or a pointer value.
type lvalue struct {
	reg    ir.RegID // register-resident scalar (NoReg otherwise)
	direct bool     // scalar cell at loc
	loc    ir.MemLoc
	index  ir.Value // for arrays: loc[index]
	isIdx  bool
	ptr    ir.Value // for *p
	isPtr  bool
}

func (lw *lowerer) lowerLvalue(e Expr) (lvalue, error) {
	switch e := e.(type) {
	case *VarExpr:
		sym := e.Sym
		if sym.inReg {
			return lvalue{reg: sym.reg}, nil
		}
		loc, err := lw.symbolLoc(sym, 0)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{reg: ir.NoReg, direct: true, loc: loc}, nil
	case *FieldExpr:
		sym := e.Sym
		idx := sym.Type.Struct.FieldIndex(e.Field)
		loc, err := lw.symbolLoc(sym, idx)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{reg: ir.NoReg, direct: true, loc: loc}, nil
	case *IndexExpr:
		sym := e.Sym
		loc, err := lw.symbolLoc(sym, 0)
		if err != nil {
			return lvalue{}, err
		}
		iv, err := lw.lowerExpr(e.Idx)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{reg: ir.NoReg, loc: loc, index: iv, isIdx: true}, nil
	case *UnaryExpr:
		if e.Op != "*" {
			break
		}
		pv, err := lw.lowerExpr(e.X)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{reg: ir.NoReg, ptr: pv, isPtr: true}, nil
	}
	return lvalue{}, fmt.Errorf("unsupported assignment target %T", e)
}

func (lw *lowerer) symbolLoc(sym *Symbol, offset int) (ir.MemLoc, error) {
	switch sym.Kind {
	case VarGlobal:
		if sym.obj == nil {
			return ir.MemLoc{}, fmt.Errorf("missing global object %s", sym.Name)
		}
		return ir.GlobalLoc(sym.obj, offset), nil
	case VarLocal:
		if sym.slot == nil {
			return ir.MemLoc{}, fmt.Errorf("local %s has no slot", sym.Name)
		}
		return ir.SlotLoc(sym.slot, offset), nil
	}
	return ir.MemLoc{}, fmt.Errorf("symbol %s is not addressable", sym.Name)
}

// loadLvalue reads the current value of an lvalue.
func (lw *lowerer) loadLvalue(v lvalue) ir.Value {
	switch {
	case v.reg != ir.NoReg:
		return ir.RegVal(v.reg)
	case v.direct:
		r := lw.f.NewReg("")
		ld := ir.NewInstr(ir.OpLoad, r)
		ld.Loc = v.loc
		lw.emit(ld)
		return ir.RegVal(r)
	case v.isIdx:
		r := lw.f.NewReg("")
		ld := ir.NewInstr(ir.OpLoadIdx, r, v.index)
		ld.Loc = v.loc
		lw.emit(ld)
		return ir.RegVal(r)
	default: // pointer
		r := lw.f.NewReg("")
		lw.emit(ir.NewInstr(ir.OpLoadPtr, r, v.ptr))
		return ir.RegVal(r)
	}
}

// storeLvalue writes val into an lvalue.
func (lw *lowerer) storeLvalue(v lvalue, val ir.Value) {
	switch {
	case v.reg != ir.NoReg:
		lw.emit(ir.NewInstr(ir.OpCopy, v.reg, val))
	case v.direct:
		st := ir.NewInstr(ir.OpStore, ir.NoReg, val)
		st.Loc = v.loc
		lw.emit(st)
	case v.isIdx:
		st := ir.NewInstr(ir.OpStoreIdx, ir.NoReg, v.index, val)
		st.Loc = v.loc
		lw.emit(st)
	default:
		lw.emit(ir.NewInstr(ir.OpStorePtr, ir.NoReg, v.ptr, val))
	}
}

var compoundOps = map[string]ir.Op{
	"+=": ir.OpAdd, "-=": ir.OpSub, "*=": ir.OpMul, "/=": ir.OpDiv, "%=": ir.OpRem,
	"++": ir.OpAdd, "--": ir.OpSub,
}

func (lw *lowerer) lowerAssign(s *AssignStmt) error {
	lv, err := lw.lowerLvalue(s.Lhs)
	if err != nil {
		return err
	}
	if s.Op == "=" {
		val, err := lw.lowerExpr(s.Rhs)
		if err != nil {
			return err
		}
		lw.storeLvalue(lv, val)
		return nil
	}
	// Compound assignment and ++/--: read-modify-write, evaluating the
	// target address/index once.
	cur := lw.loadLvalue(lv)
	rhs := ir.ConstVal(1)
	if s.Rhs != nil {
		if rhs, err = lw.lowerExpr(s.Rhs); err != nil {
			return err
		}
	}
	op, ok := compoundOps[s.Op]
	if !ok {
		return fmt.Errorf("unsupported assignment operator %s", s.Op)
	}
	r := lw.f.NewReg("")
	lw.emit(ir.NewInstr(op, r, cur, rhs))
	lw.storeLvalue(lv, ir.RegVal(r))
	return nil
}

// lowerExprOrVoid lowers an expression statement; void calls produce no
// value.
func (lw *lowerer) lowerExprOrVoid(e Expr) (ir.Value, error) {
	if call, ok := e.(*CallExpr); ok {
		return lw.lowerCall(call, true)
	}
	return lw.lowerExpr(e)
}

var binOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpShr,
	"==": ir.OpEq, "!=": ir.OpNe, "<": ir.OpLt, "<=": ir.OpLe, ">": ir.OpGt, ">=": ir.OpGe,
}

func (lw *lowerer) lowerExpr(e Expr) (ir.Value, error) {
	switch e := e.(type) {
	case *NumExpr:
		return ir.ConstVal(e.Val), nil

	case *VarExpr:
		sym := e.Sym
		if sym.inReg {
			return ir.RegVal(sym.reg), nil
		}
		loc, err := lw.symbolLoc(sym, 0)
		if err != nil {
			return ir.Value{}, err
		}
		r := lw.f.NewReg("")
		ld := ir.NewInstr(ir.OpLoad, r)
		ld.Loc = loc
		lw.emit(ld)
		return ir.RegVal(r), nil

	case *FieldExpr:
		sym := e.Sym
		idx := sym.Type.Struct.FieldIndex(e.Field)
		loc, err := lw.symbolLoc(sym, idx)
		if err != nil {
			return ir.Value{}, err
		}
		r := lw.f.NewReg("")
		ld := ir.NewInstr(ir.OpLoad, r)
		ld.Loc = loc
		lw.emit(ld)
		return ir.RegVal(r), nil

	case *IndexExpr:
		sym := e.Sym
		loc, err := lw.symbolLoc(sym, 0)
		if err != nil {
			return ir.Value{}, err
		}
		iv, err := lw.lowerExpr(e.Idx)
		if err != nil {
			return ir.Value{}, err
		}
		r := lw.f.NewReg("")
		ld := ir.NewInstr(ir.OpLoadIdx, r, iv)
		ld.Loc = loc
		lw.emit(ld)
		return ir.RegVal(r), nil

	case *UnaryExpr:
		switch e.Op {
		case "&":
			lv, err := lw.lowerLvalue(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			if !lv.direct {
				return ir.Value{}, fmt.Errorf("& target must be a scalar cell")
			}
			r := lw.f.NewReg("")
			ad := ir.NewInstr(ir.OpAddr, r)
			ad.Loc = lv.loc
			lw.emit(ad)
			return ir.RegVal(r), nil
		case "*":
			pv, err := lw.lowerExpr(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			r := lw.f.NewReg("")
			lw.emit(ir.NewInstr(ir.OpLoadPtr, r, pv))
			return ir.RegVal(r), nil
		case "-":
			xv, err := lw.lowerExpr(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			r := lw.f.NewReg("")
			lw.emit(ir.NewInstr(ir.OpNeg, r, xv))
			return ir.RegVal(r), nil
		case "~":
			xv, err := lw.lowerExpr(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			r := lw.f.NewReg("")
			lw.emit(ir.NewInstr(ir.OpNot, r, xv))
			return ir.RegVal(r), nil
		case "!":
			xv, err := lw.lowerExpr(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			r := lw.f.NewReg("")
			lw.emit(ir.NewInstr(ir.OpEq, r, xv, ir.ConstVal(0)))
			return ir.RegVal(r), nil
		}
		return ir.Value{}, fmt.Errorf("unhandled unary %s", e.Op)

	case *BinExpr:
		if e.Op == "&&" || e.Op == "||" {
			return lw.lowerShortCircuit(e)
		}
		xv, err := lw.lowerExpr(e.X)
		if err != nil {
			return ir.Value{}, err
		}
		yv, err := lw.lowerExpr(e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		op, ok := binOps[e.Op]
		if !ok {
			return ir.Value{}, fmt.Errorf("unhandled binary %s", e.Op)
		}
		r := lw.f.NewReg("")
		lw.emit(ir.NewInstr(op, r, xv, yv))
		return ir.RegVal(r), nil

	case *CallExpr:
		return lw.lowerCall(e, false)
	}
	return ir.Value{}, fmt.Errorf("unhandled expression %T", e)
}

// lowerShortCircuit lowers && and || with proper short-circuit control
// flow, producing 0 or 1 in a result register.
func (lw *lowerer) lowerShortCircuit(e *BinExpr) (ir.Value, error) {
	res := lw.f.NewReg("")
	xv, err := lw.lowerExpr(e.X)
	if err != nil {
		return ir.Value{}, err
	}
	evalY := lw.f.NewBlock()
	short := lw.f.NewBlock()
	join := lw.f.NewBlock()
	if e.Op == "&&" {
		lw.branchTo(xv, evalY, short)
	} else {
		lw.branchTo(xv, short, evalY)
	}

	lw.startBlock(short)
	if e.Op == "&&" {
		lw.emit(ir.NewInstr(ir.OpCopy, res, ir.ConstVal(0)))
	} else {
		lw.emit(ir.NewInstr(ir.OpCopy, res, ir.ConstVal(1)))
	}
	lw.jumpTo(join)

	lw.startBlock(evalY)
	yv, err := lw.lowerExpr(e.Y)
	if err != nil {
		return ir.Value{}, err
	}
	norm := lw.f.NewReg("")
	lw.emit(ir.NewInstr(ir.OpNe, norm, yv, ir.ConstVal(0)))
	lw.emit(ir.NewInstr(ir.OpCopy, res, ir.RegVal(norm)))
	lw.jumpTo(join)
	return ir.RegVal(res), nil
}

func (lw *lowerer) lowerCall(e *CallExpr, stmt bool) (ir.Value, error) {
	var args []ir.Value
	for _, a := range e.Args {
		v, err := lw.lowerExpr(a)
		if err != nil {
			return ir.Value{}, err
		}
		args = append(args, v)
	}
	if e.Fn == "print" {
		lw.emit(ir.NewInstr(ir.OpPrint, ir.NoReg, args...))
		return ir.ConstVal(0), nil
	}
	fn := lw.checked.Funcs[e.Fn]
	dst := ir.NoReg
	if fn.Ret.Kind != TypeVoid && !stmt {
		dst = lw.f.NewReg("")
	}
	call := ir.NewInstr(ir.OpCall, dst, args...)
	call.Callee = e.Fn
	lw.emit(call)
	if dst == ir.NoReg {
		return ir.ConstVal(0), nil
	}
	return ir.RegVal(dst), nil
}
