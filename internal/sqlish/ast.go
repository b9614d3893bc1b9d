package sqlish

// AST node types for the SQL dialect. Expressions reuse a tiny surface AST
// (sexpr) that the analyzer resolves into bound expr.Expr trees.

// sexpr is a surface expression.
type sexpr interface{ sexprNode() }

type (
	// sRef is a (possibly qualified) column reference; Table may be "".
	sRef struct {
		Table, Col string
	}
	// sNum is a numeric literal (int or float per Dot).
	sNum struct {
		Text string
	}
	// sStr is a string literal.
	sStr struct {
		Text string
	}
	// sBool is TRUE/FALSE; sNull is NULL.
	sBool struct{ V bool }
	sNull struct{}
	// sBin is a binary operator: comparison, arithmetic, AND/OR (Pos is
	// the byte offset of the AND / OR keyword).
	sBin struct {
		Op   string
		L, R sexpr
		Pos  int
	}
	// sNot is NOT x (Pos: the keyword's byte offset); sIsNull is x IS [NOT]
	// NULL.
	sNot struct {
		X   sexpr
		Pos int
	}
	sIsNull struct {
		X      sexpr
		Negate bool
	}
	// sBetween is x BETWEEN lo AND hi.
	sBetween struct {
		X, Lo, Hi sexpr
	}
	// sCall is a function or aggregate call; Star marks COUNT(*). Pos is
	// the byte offset of the name in the statement text.
	sCall struct {
		Name string
		Args []sexpr
		Star bool
		Pos  int
	}
	// sParam is a $N parameter placeholder (1-based).
	sParam struct {
		Idx int
	}
)

func (sRef) sexprNode()     {}
func (sNum) sexprNode()     {}
func (sStr) sexprNode()     {}
func (sBool) sexprNode()    {}
func (sNull) sexprNode()    {}
func (sBin) sexprNode()     {}
func (sNot) sexprNode()     {}
func (sIsNull) sexprNode()  {}
func (sBetween) sexprNode() {}
func (sCall) sexprNode()    {}
func (sParam) sexprNode()   {}

// selectItem is one SELECT list entry.
type selectItem struct {
	Star  bool   // *
	Expr  sexpr  // nil when Star
	Alias string // "" if none
}

// dedupMode reflects SELECT / SELECT DISTINCT / SELECT ABSORB.
type dedupMode uint8

const (
	dedupNone dedupMode = iota
	dedupDistinct
	dedupAbsorb
)

// fromItem is a FROM clause element.
type fromItem interface{ fromNode() }

type (
	// fTable is a named table with an optional alias.
	fTable struct {
		Name, Alias string
	}
	// fSubquery is a parenthesized SELECT, with its own ORDER BY, LIMIT
	// and OFFSET, and a mandatory alias.
	fSubquery struct {
		Query *selectStmt
		orderLimit
		Alias string
	}
	// fAlign is (a ALIGN b ON θ) alias; ThetaPos is θ's byte offset.
	fAlign struct {
		Left, Right fromItem
		Theta       sexpr
		ThetaPos    int
		Alias       string
	}
	// fNormalize is (a NORMALIZE b USING (cols)) alias.
	fNormalize struct {
		Left, Right fromItem
		Using       []string
		Alias       string
	}
	// fJoin joins two from items.
	fJoin struct {
		Left, Right fromItem
		Type        string // inner, left, right, full, cross
		On          sexpr  // nil for cross
		OnPos       int    // the condition's byte offset
	}
)

func (fTable) fromNode()     {}
func (fSubquery) fromNode()  {}
func (fAlign) fromNode()     {}
func (fNormalize) fromNode() {}
func (fJoin) fromNode()      {}

// orderKey is one ORDER BY term.
type orderKey struct {
	Expr sexpr
	Desc bool
}

// selectStmt is a full SELECT (one branch of a set expression); WherePos
// and HavingPos are the conditions' byte offsets.
type selectStmt struct {
	Dedup     dedupMode
	Items     []selectItem
	From      []fromItem
	Where     sexpr
	WherePos  int
	GroupBy   []sexpr
	Having    sexpr
	HavingPos int
}

// setStmt combines selects with UNION/INTERSECT/EXCEPT (left associative).
type setStmt struct {
	Left  *queryExpr
	Op    string // union, intersect, except
	Right *selectStmt
}

// queryExpr is either a plain select or a set operation.
type queryExpr struct {
	Select *selectStmt
	Set    *setStmt
}

// withClause names a subquery result.
type withClause struct {
	Name  string
	Query *queryExpr
}

// createStmt is a CREATE TABLE statement: the table name and the CSV
// file to load it from.
type createStmt struct {
	Name    string
	CSVPath string
}

// statement is the top-level parse result.
type statement struct {
	Explain bool
	// ExplainAnalyze marks EXPLAIN ANALYZE: execute the statement and
	// render the plan with estimated vs actual row counts.
	ExplainAnalyze bool
	// Analyze holds the table name of a standalone "ANALYZE <table>"
	// statement (Body is nil in that case).
	Analyze string
	// Create holds a "CREATE TABLE <name> FROM CSV '<path>'" statement
	// (Body is nil in that case).
	Create *createStmt
	// Drop holds the table name of a "DROP TABLE <name>" statement
	// (Body is nil in that case).
	Drop string
	With []withClause
	Body *queryExpr
	orderLimit
}

// orderLimit holds the ORDER BY, LIMIT and OFFSET clauses that end a
// statement or a FROM subquery (nil Limit or Offset = absent).
type orderLimit struct {
	OrderBy []orderKey
	Limit   *int64
	Offset  *int64
}
