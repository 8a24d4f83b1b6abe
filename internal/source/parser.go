package source

import "fmt"

// Parser builds an AST from mini-C tokens.
type Parser struct {
	lx  *Lexer
	tok Token // current
	nxt Token // lookahead
}

// Parse parses a mini-C compilation unit.
func Parse(src string) (*File, error) {
	p := &Parser{lx: NewLexer(src)}
	if err := p.prime(); err != nil {
		return nil, err
	}
	return p.parseFile()
}

func (p *Parser) prime() error {
	var err error
	if p.tok, err = p.lx.Next(); err != nil {
		return err
	}
	p.nxt, err = p.lx.Next()
	return err
}

func (p *Parser) next() error {
	p.tok = p.nxt
	var err error
	p.nxt, err = p.lx.Next()
	return err
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, fmt.Errorf("%v: expected %v, found %v", p.tok.Pos, k, p.tok.Kind)
	}
	t := p.tok
	return t, p.next()
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("%v: %s", p.tok.Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) parseFile() (*File, error) {
	file := &File{}
	for p.tok.Kind != TokEOF {
		switch p.tok.Kind {
		case TokStruct:
			// Either a struct type definition `struct S { ... };` or a
			// global struct variable `struct S name;`.
			if p.nxt.Kind != TokIdent {
				return nil, p.errf("expected struct name")
			}
			save := p.tok.Pos
			if err := p.next(); err != nil { // consume 'struct'
				return nil, err
			}
			name := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind == TokLBrace {
				sd, err := p.parseStructBody(name, save)
				if err != nil {
					return nil, err
				}
				file.Structs = append(file.Structs, sd)
			} else {
				// Global struct variable.
				vname, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokSemi); err != nil {
					return nil, err
				}
				file.Globals = append(file.Globals, &GlobalDecl{
					Name: vname.Text,
					Type: Type{Kind: TypeStruct, Struct: &StructDef{Name: name}},
					Pos:  save,
				})
			}
		case TokInt, TokVoid:
			decl, err := p.parseTopLevelIntOrFunc(file)
			if err != nil {
				return nil, err
			}
			_ = decl
		default:
			return nil, p.errf("expected declaration, found %v", p.tok.Kind)
		}
	}
	return file, nil
}

func (p *Parser) parseStructBody(name string, pos Pos) (*StructDef, error) {
	sd := &StructDef{Name: name, Pos: pos}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for p.tok.Kind != TokRBrace {
		if _, err := p.expect(TokInt); err != nil {
			return nil, err
		}
		f, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, f.Text)
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSemi {
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return sd, nil
}

// parseTopLevelIntOrFunc handles `int x;`, `int x = 5;`, `int a[10];`,
// `int f(...) {...}`, `void f(...) {...}`, `int *f?` (pointer returns are
// not supported).
func (p *Parser) parseTopLevelIntOrFunc(file *File) (any, error) {
	pos := p.tok.Pos
	isVoid := p.tok.Kind == TokVoid
	if err := p.next(); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokLParen {
		fn, err := p.parseFuncRest(name.Text, isVoid, pos)
		if err != nil {
			return nil, err
		}
		file.Funcs = append(file.Funcs, fn)
		return fn, nil
	}
	if isVoid {
		return nil, p.errf("void is only valid as a function return type")
	}
	g := &GlobalDecl{Name: name.Text, Type: Type{Kind: TypeInt}, Pos: pos}
	if p.tok.Kind == TokLBracket {
		if err := p.next(); err != nil {
			return nil, err
		}
		n, err := p.expect(TokNum)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		g.Type = Type{Kind: TypeArray}
		g.ArrayN = int(n.Num)
	}
	if p.tok.Kind == TokAssign {
		if err := p.next(); err != nil {
			return nil, err
		}
		neg := false
		if p.tok.Kind == TokMinus {
			neg = true
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		n, err := p.expect(TokNum)
		if err != nil {
			return nil, err
		}
		v := n.Num
		if neg {
			v = -v
		}
		g.Init = []int64{v}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	file.Globals = append(file.Globals, g)
	return g, nil
}

func (p *Parser) parseFuncRest(name string, isVoid bool, pos Pos) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name, Pos: pos}
	if isVoid {
		fn.Ret = Type{Kind: TypeVoid}
	} else {
		fn.Ret = Type{Kind: TypeInt}
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for p.tok.Kind != TokRParen {
		if len(fn.Params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		ppos := p.tok.Pos
		if p.tok.Kind == TokVoid && p.nxt.Kind == TokRParen {
			if err := p.next(); err != nil {
				return nil, err
			}
			break
		}
		if _, err := p.expect(TokInt); err != nil {
			return nil, err
		}
		ty := Type{Kind: TypeInt}
		if p.tok.Kind == TokStar {
			ty = Type{Kind: TypePtr}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, Param{Name: id.Text, Type: ty, Pos: ppos})
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	pos := p.tok.Pos
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: pos}
	for p.tok.Kind != TokRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, p.next()
}

func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokLBrace:
		return p.parseBlock()
	case TokSemi:
		return &EmptyStmt{Pos: pos}, p.next()
	case TokInt, TokStruct:
		s, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return s, nil
	case TokIf:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.tok.Kind == TokElse {
			if err := p.next(); err != nil {
				return nil, err
			}
			if els, err = p.parseStmt(); err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Pos: pos}, nil
	case TokWhile:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil
	case TokDo:
		if err := p.next(); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond, Pos: pos}, nil
	case TokFor:
		return p.parseFor()
	case TokReturn:
		if err := p.next(); err != nil {
			return nil, err
		}
		var x Expr
		if p.tok.Kind != TokSemi {
			var err error
			if x, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Pos: pos}, nil
	case TokBreak:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: pos}, nil
	case TokContinue:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: pos}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *Parser) parseDecl() (Stmt, error) {
	pos := p.tok.Pos
	if p.tok.Kind == TokStruct {
		if err := p.next(); err != nil {
			return nil, err
		}
		sname, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		vname, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{
			Name: vname.Text,
			Type: Type{Kind: TypeStruct, Struct: &StructDef{Name: sname.Text}},
			Pos:  pos,
		}, nil
	}
	if _, err := p.expect(TokInt); err != nil {
		return nil, err
	}
	ty := Type{Kind: TypeInt}
	if p.tok.Kind == TokStar {
		ty = Type{Kind: TypePtr}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Name: name.Text, Type: ty, Pos: pos}
	if p.tok.Kind == TokLBracket {
		if ty.Kind != TypeInt {
			return nil, p.errf("array of pointers not supported")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		n, err := p.expect(TokNum)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		d.Type = Type{Kind: TypeArray}
		d.ArrayN = int(n.Num)
		return d, nil
	}
	if p.tok.Kind == TokAssign {
		if err := p.next(); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

// parseSimpleStmt parses assignments, ++/--, and expression statements.
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	pos := p.tok.Pos
	if p.tok.Kind == TokInc || p.tok.Kind == TokDec {
		op := "++"
		if p.tok.Kind == TokDec {
			op = "--"
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		lhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Lhs: lhs, Op: op, Pos: pos}, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case TokAssign, TokPlusEq, TokMinusEq, TokStarEq, TokSlashEq, TokPctEq:
		op := assignName[p.tok.Kind]
		if err := p.next(); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Lhs: x, Op: op, Rhs: rhs, Pos: pos}, nil
	case TokInc:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &AssignStmt{Lhs: x, Op: "++", Pos: pos}, nil
	case TokDec:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &AssignStmt{Lhs: x, Op: "--", Pos: pos}, nil
	}
	return &ExprStmt{X: x, Pos: pos}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var init Stmt
	if p.tok.Kind != TokSemi {
		var err error
		if p.tok.Kind == TokInt {
			if init, err = p.parseDecl(); err != nil {
				return nil, err
			}
		} else if init, err = p.parseSimpleStmt(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	var cond Expr
	if p.tok.Kind != TokSemi {
		var err error
		if cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	var post Stmt
	if p.tok.Kind != TokRParen {
		var err error
		if post, err = p.parseSimpleStmt(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Pos: pos}, nil
}

// Expression parsing: precedence climbing.
//
//	||  (lowest)
//	&&
//	|
//	^
//	&
//	== !=
//	< <= > >=
//	<< >>
//	+ -
//	* / %
//	unary - ! ~ * &
var binPrec = map[TokKind]int{
	TokOrOr: 1, TokAndAnd: 2, TokPipe: 3, TokCaret: 4, TokAmp: 5,
	TokEq: 6, TokNe: 6,
	TokLt: 7, TokLe: 7, TokGt: 7, TokGe: 7,
	TokShl: 8, TokShr: 8,
	TokPlus: 9, TokMinus: 9,
	TokStar: 10, TokSlash: 10, TokPercent: 10,
}

var binName = map[TokKind]string{
	TokOrOr: "||", TokAndAnd: "&&", TokPipe: "|", TokCaret: "^",
	TokAmp: "&", TokEq: "==", TokNe: "!=", TokLt: "<", TokLe: "<=",
	TokGt: ">", TokGe: ">=", TokShl: "<<", TokShr: ">>", TokPlus: "+",
	TokMinus: "-", TokStar: "*", TokSlash: "/", TokPercent: "%",
}

// assignName and unaryName spell the assignment and unary operators.
var assignName = map[TokKind]string{
	TokAssign: "=", TokPlusEq: "+=", TokMinusEq: "-=",
	TokStarEq: "*=", TokSlashEq: "/=", TokPctEq: "%=",
}

var unaryName = map[TokKind]string{
	TokMinus: "-", TokBang: "!", TokTilde: "~", TokStar: "*", TokAmp: "&",
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBin(1) }

func (p *Parser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.tok.Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := binName[p.tok.Kind]
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: op, X: lhs, Y: rhs, Pos: pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokMinus, TokBang, TokTilde, TokStar, TokAmp:
		op := unaryName[p.tok.Kind]
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, X: x, Pos: pos}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokNum:
		v := p.tok.Num
		return &NumExpr{Val: v, Pos: pos}, p.next()
	case TokLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TokIdent:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		switch p.tok.Kind {
		case TokLParen:
			if err := p.next(); err != nil {
				return nil, err
			}
			call := &CallExpr{Fn: name, Pos: pos}
			for p.tok.Kind != TokRParen {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokComma); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, p.next()
		case TokLBracket:
			if err := p.next(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Arr: name, Idx: idx, Pos: pos}, nil
		case TokDot:
			if err := p.next(); err != nil {
				return nil, err
			}
			f, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			return &FieldExpr{Rec: name, Field: f.Text, Pos: pos}, nil
		}
		return &VarExpr{Name: name, Pos: pos}, nil
	}
	return nil, p.errf("expected expression, found %v", p.tok.Kind)
}
