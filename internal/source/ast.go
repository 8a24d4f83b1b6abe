package source

// Type is a mini-C type.
type Type struct {
	Kind   TypeKind
	Struct *StructDef // for TypeStruct
}

// TypeKind enumerates mini-C types.
type TypeKind uint8

// Mini-C types: int, int* (pointer to an int scalar cell), struct (by
// name; only declarable, fields accessed individually), array of int
// (only declarable), and void (function results only).
const (
	TypeInt TypeKind = iota
	TypePtr
	TypeStruct
	TypeArray
	TypeVoid
)

func (t Type) String() string {
	switch t.Kind {
	case TypeInt:
		return "int"
	case TypePtr:
		return "int*"
	case TypeStruct:
		if t.Struct != nil {
			return "struct " + t.Struct.Name
		}
		return "struct"
	case TypeArray:
		return "int[]"
	case TypeVoid:
		return "void"
	}
	return "?"
}

// StructDef is a struct type declaration; all fields are ints.
type StructDef struct {
	Name   string
	Fields []string
	Pos    Pos
}

// FieldIndex returns the cell offset of the named field, or -1.
func (sd *StructDef) FieldIndex(name string) int {
	for i, f := range sd.Fields {
		if f == name {
			return i
		}
	}
	return -1
}

// File is a parsed compilation unit.
type File struct {
	Structs []*StructDef
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}

// GlobalDecl declares a global variable.
type GlobalDecl struct {
	Name   string
	Type   Type
	ArrayN int     // for TypeArray: element count
	Init   []int64 // optional initializer(s)
	Pos    Pos

	// AddrTaken is set by the checker when &name occurs anywhere in the
	// program.
	AddrTaken bool
	// Sym is the global's symbol, set by the checker.
	Sym *Symbol
}

// FuncDecl declares a function.
type FuncDecl struct {
	Name   string
	Ret    Type
	Params []Param
	Body   *BlockStmt
	Pos    Pos
}

// Param is a function parameter (int or int*).
type Param struct {
	Name string
	Type Type
	Pos  Pos

	// Sym is the parameter's symbol, set by the checker.
	Sym *Symbol
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	Name   string
	Type   Type
	ArrayN int
	Init   Expr // optional, scalar/pointer only
	Pos    Pos

	// AddrTaken is set by the checker when &name occurs anywhere in the
	// function, forcing the local into a stack slot.
	AddrTaken bool
	// Sym is the declared symbol, set by the checker.
	Sym *Symbol
}

// AssignStmt is `lhs op= rhs`, where Op is one of "=", "+=", "-=", "*=",
// "/=", "%=", "++", "--" ("++"/"--" have nil Rhs).
type AssignStmt struct {
	Lhs Expr // lvalue
	Op  string
	Rhs Expr
	Pos Pos
}

// ExprStmt evaluates an expression for its side effects (usually a
// call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// IfStmt is `if (Cond) Then else Else`; Else may be nil.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt
	Pos  Pos
}

// WhileStmt is `while (Cond) Body`.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// DoWhileStmt is `do Body while (Cond);`.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	Pos  Pos
}

// ForStmt is `for (Init; Cond; Post) Body`; any of the three headers may
// be nil.
type ForStmt struct {
	Init Stmt // DeclStmt or AssignStmt or ExprStmt
	Cond Expr
	Post Stmt // AssignStmt or ExprStmt
	Body Stmt
	Pos  Pos
}

// ReturnStmt is `return X;` (X nil for void).
type ReturnStmt struct {
	X   Expr
	Pos Pos
}

// BreakStmt is `break;`.
type BreakStmt struct{ Pos Pos }

// ContinueStmt is `continue;`.
type ContinueStmt struct{ Pos Pos }

// EmptyStmt is `;`.
type EmptyStmt struct{ Pos Pos }

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*EmptyStmt) stmtNode()    {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// NumExpr is an integer literal.
type NumExpr struct {
	Val int64
	Pos Pos
}

// VarExpr names a variable (global, local, or parameter).
type VarExpr struct {
	Name string
	Pos  Pos
	Sym  *Symbol // the variable, resolved by the checker
}

// IndexExpr is `Arr[Idx]`.
type IndexExpr struct {
	Arr string // array variable name
	Idx Expr
	Pos Pos
	Sym *Symbol // the array, resolved by the checker
}

// FieldExpr is `Rec.Field`.
type FieldExpr struct {
	Rec   string // struct variable name
	Field string
	Pos   Pos
	Sym   *Symbol // the struct variable, resolved by the checker
}

// UnaryExpr is `Op X` with Op in "-", "!", "~", "*", "&".
type UnaryExpr struct {
	Op  string
	X   Expr
	Pos Pos
}

// BinExpr is `X Op Y` for arithmetic, comparison, and logical (&&, ||)
// operators. Logical operators short-circuit.
type BinExpr struct {
	Op   string
	X, Y Expr
	Pos  Pos
}

// CallExpr is `Fn(Args...)`. The name "print" is the built-in output
// statement.
type CallExpr struct {
	Fn   string
	Args []Expr
	Pos  Pos
}

func (*NumExpr) exprNode()   {}
func (*VarExpr) exprNode()   {}
func (*IndexExpr) exprNode() {}
func (*FieldExpr) exprNode() {}
func (*UnaryExpr) exprNode() {}
func (*BinExpr) exprNode()   {}
func (*CallExpr) exprNode()  {}
