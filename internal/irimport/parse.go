package irimport

import (
	"fmt"

	"repro/internal/ir"
)

// Parse parses textual IR in the dialect documented in irimport.go and
// lowers it into an ir.Program in the pre-SSA form the pipeline
// consumes: phis become parallel copies in the predecessors, pointers
// to named storage become direct load/store/addr instructions, and
// registers are renumbered into textual first-mention order so that
// ir.WriteText of the result is a fixed point of parse∘print.
// The file name is used in error positions only.
func Parse(file, src string) (*ir.Program, error) {
	toks, err := lex(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: file, toks: toks, prog: ir.NewProgram(),
		declared: map[string]bool{}, retVoid: map[string]bool{}}
	if err := p.module(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// Compile parses src with a placeholder file name.
func Compile(src string) (*ir.Program, error) { return Parse("<input>", src) }

type parser struct {
	file     string
	toks     []token
	i        int
	prog     *ir.Program
	declared map[string]bool
	retVoid  map[string]bool // defined functions returning void
	calls    []callSite
}

// callSite defers callee resolution to the end of the module so that
// forward calls work.
type callSite struct {
	callee string
	nargs  int
	hasDst bool
	pos    Pos
}

func (p *parser) peek() token { return p.toks[p.i] }

// next consumes the current token. The tEOF sentinel is sticky: the
// index never advances past it, so the helpers above stay in bounds no
// matter how many tokens an error path over-consumes.
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tEOF {
		p.i++
	}
	return t
}

func (p *parser) unread()     { p.i-- }
func (p *parser) atEOF() bool { return p.toks[p.i].kind == tEOF }
func (p *parser) pos() Pos    { return p.toks[p.i].pos }

func (p *parser) errAt(pos Pos, format string, args ...any) error {
	return &ParseError{File: p.file, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) errTok(t token, format string, args ...any) error {
	return p.errAt(t.pos, format, args...)
}

// skipLine discards tokens through the end of the current source line.
func (p *parser) skipLine() {
	p.skipRestOfLine(p.toks[p.i].pos.Line)
}

// skipRestOfLine discards tokens while they are still on the given
// line. Used after a construct has been fully parsed, where the next
// token may already be on the following line and must stay.
func (p *parser) skipRestOfLine(line int) {
	for !p.atEOF() && p.toks[p.i].pos.Line == line {
		p.i++
	}
}

func (p *parser) expectPunct(s string) (token, error) {
	t := p.next()
	if t.kind != tPunct || t.text != s {
		return t, p.errTok(t, "expected %q, found %s", s, t.describe())
	}
	return t, nil
}

func (p *parser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptWord(s string) bool {
	t := p.peek()
	if t.kind == tWord && t.text == s {
		p.i++
		return true
	}
	return false
}

// module parses the top level: globals, defines, declares, and the
// skippable module furniture clang emits around them.
func (p *parser) module() error {
	for !p.atEOF() {
		t := p.peek()
		switch {
		case t.kind == tGlobal:
			if err := p.global(); err != nil {
				return err
			}
		case t.kind == tWord && t.text == "define":
			if err := p.function(); err != nil {
				return err
			}
		case t.kind == tWord && t.text == "declare":
			p.declare()
		case t.kind == tWord && (t.text == "source_filename" || t.text == "target" ||
			t.text == "attributes" || t.text == "module"):
			p.skipLine()
		default:
			return p.errTok(t, "expected global, define, or declare at top level, found %s", t.describe())
		}
	}
	return p.checkCalls()
}

func (p *parser) declare() {
	line := p.peek().pos.Line
	p.i++ // "declare"
	for !p.atEOF() && p.toks[p.i].pos.Line == line {
		if t := p.toks[p.i]; t.kind == tGlobal {
			p.declared[t.text] = true
		}
		p.i++
	}
}

func (p *parser) checkCalls() error {
	for _, c := range p.calls {
		f := p.prog.Func(c.callee)
		if f == nil {
			if p.declared[c.callee] {
				return p.errAt(c.pos, "call to @%s, which is declared but not defined in this module", c.callee)
			}
			return p.errAt(c.pos, "call to undefined function @%s", c.callee)
		}
		if c.nargs != len(f.Params) {
			return p.errAt(c.pos, "call to @%s with %d arguments, function takes %d",
				c.callee, c.nargs, len(f.Params))
		}
		if c.hasDst && p.retVoid[c.callee] {
			return p.errAt(c.pos, "call names a result, but @%s returns void", c.callee)
		}
	}
	return nil
}

// ---- types ----

type typ struct {
	void  bool
	label bool
	bits  int // int width, 0 if not an integer
	arr   bool
	n     int // array length
	ptr   int // pointer depth ("ptr" counts as 1)
}

func (t typ) isInt() bool    { return t.bits > 0 && t.ptr == 0 && !t.arr }
func (t typ) isPtr() bool    { return t.ptr > 0 }
func (t typ) isScalar() bool { return t.isInt() }

// parseType parses void, label, ptr, iN, [N x iN], with trailing '*'s.
func (p *parser) parseType() (typ, error) {
	var out typ
	t := p.next()
	switch {
	case t.kind == tWord && t.text == "void":
		out.void = true
	case t.kind == tWord && t.text == "label":
		out.label = true
	case t.kind == tWord && t.text == "ptr":
		out.ptr = 1
	case t.kind == tWord && len(t.text) > 1 && t.text[0] == 'i' && allDigits(t.text[1:]):
		bits := 0
		for _, c := range t.text[1:] {
			bits = bits*10 + int(c-'0')
		}
		if bits < 1 || bits > 64 {
			return out, p.errTok(t, "unsupported integer width %s (the dialect widens i1..i64 to 64-bit cells)", t.text)
		}
		out.bits = bits
	case t.kind == tPunct && t.text == "[":
		nt := p.next()
		if nt.kind != tInt || nt.ival < 1 {
			return out, p.errTok(nt, "expected positive array length, found %s", nt.describe())
		}
		if !p.acceptWord("x") {
			return out, p.errTok(p.peek(), "expected \"x\" in array type")
		}
		elem, err := p.parseType()
		if err != nil {
			return out, err
		}
		if !elem.isInt() {
			return out, p.errTok(t, "only integer array elements are supported")
		}
		if _, err := p.expectPunct("]"); err != nil {
			return out, err
		}
		out.arr = true
		out.n = int(nt.ival)
	default:
		return out, p.errTok(t, "expected type, found %s", t.describe())
	}
	for p.acceptPunct("*") {
		out.ptr++
	}
	return out, nil
}

// typeStart reports whether the next token begins a type, used to skip
// linkage/attribute words in positions like `define dso_local i64 @f`.
func (p *parser) typeStart() bool {
	t := p.peek()
	if t.kind == tPunct && t.text == "[" {
		return true
	}
	if t.kind != tWord {
		return false
	}
	switch t.text {
	case "void", "label", "ptr":
		return true
	}
	return len(t.text) > 1 && t.text[0] == 'i' && allDigits(t.text[1:])
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// ---- globals ----

func (p *parser) global() error {
	name := p.next() // tGlobal
	if p.prog.FindGlobal(name.text) != nil {
		return p.errTok(name, "redefinition of global @%s", name.text)
	}
	if _, err := p.expectPunct("="); err != nil {
		return err
	}
	sawKind := false
	for {
		t := p.peek()
		if t.kind != tWord {
			break
		}
		switch t.text {
		case "global", "constant":
			sawKind = true
			p.i++
			continue
		case "private", "internal", "external", "dso_local", "common",
			"unnamed_addr", "local_unnamed_addr", "linkonce", "linkonce_odr", "weak":
			p.i++
			continue
		}
		break
	}
	if !sawKind {
		return p.errTok(p.peek(), "expected \"global\" or \"constant\" in definition of @%s", name.text)
	}
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	switch {
	case ty.isInt():
		t := p.next()
		var init int64
		switch {
		case t.kind == tInt:
			init = t.ival
		case t.kind == tWord && t.text == "zeroinitializer":
		default:
			return p.errTok(t, "expected integer initializer for @%s, found %s", name.text, t.describe())
		}
		g := p.prog.AddGlobal(name.text, 1, false, nil)
		g.Init = []int64{init}
	case ty.arr && ty.ptr == 0:
		init := make([]int64, ty.n)
		t := p.next()
		switch {
		case t.kind == tWord && t.text == "zeroinitializer":
		case t.kind == tPunct && t.text == "[":
			for k := 0; ; k++ {
				et, err := p.parseType()
				if err != nil {
					return err
				}
				if !et.isInt() {
					return p.errTok(t, "array initializer elements must be integers")
				}
				vt := p.next()
				if vt.kind != tInt {
					return p.errTok(vt, "expected integer in array initializer, found %s", vt.describe())
				}
				if k >= ty.n {
					return p.errTok(vt, "too many initializer elements for @%s (array length %d)", name.text, ty.n)
				}
				init[k] = vt.ival
				if p.acceptPunct("]") {
					if k != ty.n-1 {
						return p.errTok(vt, "initializer for @%s has %d elements, array length is %d",
							name.text, k+1, ty.n)
					}
					break
				}
				if _, err := p.expectPunct(","); err != nil {
					return err
				}
			}
		default:
			return p.errTok(t, "expected array initializer for @%s, found %s", name.text, t.describe())
		}
		g := p.prog.AddGlobal(name.text, ty.n, true, nil)
		g.Init = init
	default:
		return p.errTok(name, "unsupported global type for @%s (want iN or [N x iN])", name.text)
	}
	// Trailing `, align N`, section markers, and comdat furniture all
	// live on the same line as the end of the initializer; discard
	// them without touching the next line.
	p.skipRestOfLine(p.toks[p.i-1].pos.Line)
	return nil
}

// ---- functions ----

// symbol kinds: a local %name resolves to exactly one of these.
type symKind int

const (
	symSlot symKind = iota // alloca result: a stack slot
	symGep                 // getelementptr over named storage: a cell address, no IR emitted
)

type sym struct {
	kind symKind
	slot *ir.Slot
	loc  ir.MemLoc // symGep: base location, Offset set for struct-style cells
	idx  ir.Value  // symGep over an array: cell index
	arr  bool      // symGep: base is an array resource
	pos  Pos
}

type regInfo struct {
	id       ir.RegID
	defined  bool
	firstUse Pos
}

// phiOperand is one phi incoming value, parsed without emitting IR.
// A pointer constant (@g, an alloca, a constant getelementptr or
// inttoptr) is held as the memory location it names; lowerPhis
// materializes the addr-of in each predecessor, where the copy that
// reads it runs — materializing at parse time would define the temp in
// the phi's own block, after the predecessor copy that uses it.
type phiOperand struct {
	val   ir.Value // when !isLoc: a constant or register
	isLoc bool
	loc   ir.MemLoc
}

func (a phiOperand) equal(b phiOperand) bool {
	if a.isLoc != b.isLoc {
		return false
	}
	if a.isLoc {
		return a.loc == b.loc
	}
	return a.val == b.val
}

type phiRec struct {
	blk    *ir.Block
	dst    ir.RegID
	ops    []phiOperand
	labels []string
	lpos   []Pos
	pos    Pos
}

type funcParser struct {
	p      *parser
	f      *ir.Function
	fpos   Pos
	retty  typ
	syms   map[string]*sym
	regs   map[string]*regInfo
	blocks map[string]*ir.Block
	names  []string // block names in layout order
	cur    *ir.Block
	done   bool // current block has seen its terminator
	phis   []phiRec
}

func (p *parser) function() error {
	fpos := p.next().pos // "define"
	for p.peek().kind == tWord && !p.typeStart() {
		p.i++ // linkage / visibility / cc words
	}
	retty, err := p.parseType()
	if err != nil {
		return err
	}
	if !retty.void && !retty.isInt() {
		return p.errAt(fpos, "function return type must be void or an integer")
	}
	nameTok := p.next()
	if nameTok.kind != tGlobal {
		return p.errTok(nameTok, "expected function name after define, found %s", nameTok.describe())
	}
	if p.prog.Func(nameTok.text) != nil {
		return p.errTok(nameTok, "redefinition of function @%s", nameTok.text)
	}
	p.retVoid[nameTok.text] = retty.void

	f := ir.NewFunction(p.prog, nameTok.text)
	fp := &funcParser{
		p: p, f: f, fpos: fpos, retty: retty,
		syms:   map[string]*sym{},
		regs:   map[string]*regInfo{},
		blocks: map[string]*ir.Block{},
	}

	if _, err := p.expectPunct("("); err != nil {
		return err
	}
	for !p.acceptPunct(")") {
		if len(f.Params) > 0 {
			if _, err := p.expectPunct(","); err != nil {
				return err
			}
		}
		pt, err := p.parseType()
		if err != nil {
			return err
		}
		if !pt.isInt() && !pt.isPtr() {
			return p.errAt(fpos, "parameters must be integers or pointers")
		}
		for p.peek().kind == tWord { // parameter attributes: noundef, signext, ...
			p.i++
		}
		ptok := p.next()
		if ptok.kind != tLocal {
			return p.errTok(ptok, "expected parameter name, found %s (unnamed parameters are not supported)", ptok.describe())
		}
		if _, clash := fp.regs[ptok.text]; clash {
			return p.errTok(ptok, "duplicate parameter %%%s", ptok.text)
		}
		r := f.NewReg("")
		fp.regs[ptok.text] = &regInfo{id: r, defined: true}
		f.Params = append(f.Params, r)
	}
	for p.peek().kind == tWord || p.peek().kind == tGlobal {
		p.i++ // function attributes, personality, section names
	}
	if _, err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := fp.body(); err != nil {
		return err
	}
	return nil
}

// body parses the function body between braces and runs the lowering
// passes that turn the parsed form into pipeline-ready IR.
func (fp *funcParser) body() error {
	p := fp.p
	if err := fp.scanLabels(); err != nil {
		return err
	}
	if len(fp.names) == 0 {
		return p.errAt(fp.fpos, "function @%s has no basic blocks", fp.f.Name)
	}
	for _, name := range fp.names {
		b := fp.f.NewBlock()
		fp.blocks[name] = b
	}
	fp.cur = fp.f.Blocks[0]

	for {
		t := p.peek()
		if t.kind == tPunct && t.text == "}" {
			p.i++
			break
		}
		if t.kind == tEOF {
			return p.errTok(t, "unexpected end of input in function @%s", fp.f.Name)
		}
		// A label introduces the next block.
		if (t.kind == tWord || t.kind == tInt) && p.toks[p.i+1].kind == tPunct && p.toks[p.i+1].text == ":" {
			b, ok := fp.blocks[t.text]
			if !ok {
				return p.errTok(t, "internal label scan missed %q", t.text)
			}
			// Only the very first label may open the (still empty)
			// entry block; everywhere else the previous block must
			// have ended in a terminator.
			if !fp.done && (b != fp.cur || fp.hasInstrs()) {
				return p.errTok(t, "block %q is not terminated (the dialect has no fallthrough)", fp.curName())
			}
			p.i += 2
			fp.cur = b
			fp.done = false
			continue
		}
		if fp.done {
			return p.errTok(t, "instruction after terminator in block %q", fp.curName())
		}
		if err := fp.instr(); err != nil {
			return err
		}
	}
	if !fp.done {
		return p.errAt(fp.fpos, "final block %q of @%s is not terminated", fp.curName(), fp.f.Name)
	}
	for name, ri := range fp.regs {
		if !ri.defined {
			return p.errAt(ri.firstUse, "%%%s is used but never defined", name)
		}
	}
	if len(fp.f.Blocks[0].Preds) > 0 {
		return p.errAt(fp.fpos, "branch to the entry block of @%s (entry must have no predecessors)", fp.f.Name)
	}
	if err := fp.lowerPhis(); err != nil {
		return err
	}
	fp.renumberRegs()
	if err := fp.f.Verify(ir.VerifyCFG); err != nil {
		return p.errAt(fp.fpos, "@%s: %v", fp.f.Name, err)
	}
	return nil
}

func (fp *funcParser) hasInstrs() bool { return len(fp.cur.Instrs) > 0 }

func (fp *funcParser) curName() string {
	for name, b := range fp.blocks {
		if b == fp.cur {
			if name == "" {
				return "entry"
			}
			return name
		}
	}
	return "?"
}

// scanLabels walks the body tokens ahead of parsing to collect block
// labels in layout order, so blocks exist (with dense IDs in textual
// order) before any branch references them. An unlabeled first block
// gets the internal name "".
func (fp *funcParser) scanLabels() error {
	p := fp.p
	first := true
	for j := p.i; ; j++ {
		t := p.toks[j]
		if t.kind == tEOF || t.kind == tPunct && t.text == "}" {
			return nil
		}
		isLabel := (t.kind == tWord || t.kind == tInt) &&
			p.toks[j+1].kind == tPunct && p.toks[j+1].text == ":"
		if isLabel {
			if _, dup := fp.blocks[t.text]; dup {
				return p.errTok(t, "duplicate label %q", t.text)
			}
			fp.blocks[t.text] = nil // reserve; filled in by body
			fp.names = append(fp.names, t.text)
			j++
		} else if first {
			// Unlabeled entry block.
			fp.names = append(fp.names, "")
			fp.blocks[""] = nil
		}
		first = false
	}
}
