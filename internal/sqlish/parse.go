package sqlish

import (
	"strconv"

	"talign/internal/faultinject"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	src  string
	toks []token
	pos  int
}

// Parse parses one statement.
func parse(src string) (*statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(src, toks)
}

// parseTokens parses an already-lexed statement; src backs error
// positions.
func parseTokens(src string, toks []token) (*statement, error) {
	// Test seam: the "at most one parse per statement" tests count visits.
	if err := faultinject.Hit("sqlish.parse"); err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after end of statement", p.peek().text)
	}
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return newErrorAt(p.src, p.peek().pos, format, args...)
}

// kw reports whether the next token is the given keyword and consumes it.
func (p *parser) kw(word string) bool {
	if p.peek().kind == tokIdent && p.peek().text == word {
		p.pos++
		return true
	}
	return false
}

// sym reports whether the next token is the given symbol and consumes it.
func (p *parser) sym(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return p.errf("expected %s, found %q", word, p.peek().text)
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	if !p.sym(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent || reserved[t.text] {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// statement := ANALYZE table
//
//	| CREATE TABLE table FROM CSV 'path'
//	| DROP TABLE table
//	| [EXPLAIN [ANALYZE]] [WITH ...] queryExpr [ORDER BY ...]
//	  [LIMIT n] [OFFSET m]
func (p *parser) statement() (*statement, error) {
	st := &statement{}
	if p.kw("analyze") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Analyze = name
		return st, nil
	}
	if p.kw("create") {
		if err := p.expectKw("table"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("from"); err != nil {
			return nil, err
		}
		if err := p.expectKw("csv"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokString {
			return nil, p.errf("expected a quoted CSV path, found %q", t.text)
		}
		p.pos++
		st.Create = &createStmt{Name: name, CSVPath: t.text}
		return st, nil
	}
	if p.kw("drop") {
		if err := p.expectKw("table"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Drop = name
		return st, nil
	}
	if p.kw("explain") {
		st.Explain = true
		if p.kw("analyze") {
			st.ExplainAnalyze = true
		}
	}
	if p.kw("with") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("as"); err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			q, err := p.queryExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			st.With = append(st.With, withClause{Name: name, Query: q})
			if !p.sym(",") {
				break
			}
		}
	}
	body, err := p.queryExpr()
	if err != nil {
		return nil, err
	}
	st.Body = body
	if st.orderLimit, err = p.orderLimit(); err != nil {
		return nil, err
	}
	return st, nil
}

// orderLimit parses the optional ORDER BY, LIMIT and OFFSET clauses.
func (p *parser) orderLimit() (ol orderLimit, err error) {
	if p.kw("order") {
		if err := p.expectKw("by"); err != nil {
			return ol, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return ol, err
			}
			k := orderKey{Expr: e}
			if p.kw("desc") {
				k.Desc = true
			} else {
				p.kw("asc")
			}
			ol.OrderBy = append(ol.OrderBy, k)
			if !p.sym(",") {
				break
			}
		}
	}
	if p.kw("limit") {
		n, err := p.intLiteral("LIMIT")
		if err != nil {
			return ol, err
		}
		ol.Limit = &n
	}
	if p.kw("offset") {
		n, err := p.intLiteral("OFFSET")
		if err != nil {
			return ol, err
		}
		ol.Offset = &n
	}
	return ol, nil
}

// intLiteral parses a non-negative integer literal (LIMIT/OFFSET counts).
func (p *parser) intLiteral(clause string) (int64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("%s expects an integer literal, found %q", clause, t.text)
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("%s expects an integer literal, found %q", clause, t.text)
	}
	p.pos++
	return n, nil
}

// queryExpr := select { (UNION|INTERSECT|EXCEPT) select }
func (p *parser) queryExpr() (*queryExpr, error) {
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	q := &queryExpr{Select: sel}
	for {
		var op string
		switch {
		case p.kw("union"):
			op = "union"
		case p.kw("intersect"):
			op = "intersect"
		case p.kw("except"):
			op = "except"
		default:
			return q, nil
		}
		right, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		q = &queryExpr{Set: &setStmt{Left: q, Op: op, Right: right}}
	}
}

// selectStmt parses one SELECT ... [FROM ...] [WHERE] [GROUP BY] [HAVING].
func (p *parser) selectStmt() (*selectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	st := &selectStmt{}
	if p.kw("distinct") {
		st.Dedup = dedupDistinct
	} else if p.kw("absorb") {
		st.Dedup = dedupAbsorb
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.sym(",") {
			break
		}
	}
	if p.kw("from") {
		for {
			fi, err := p.fromItem()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, fi)
			if !p.sym(",") {
				break
			}
		}
	}
	if p.kw("where") {
		st.WherePos = p.peek().pos
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.kw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.sym(",") {
				break
			}
		}
	}
	if p.kw("having") {
		st.HavingPos = p.peek().pos
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	return st, nil
}

func (p *parser) selectItem() (selectItem, error) {
	if p.sym("*") {
		return selectItem{Star: true}, nil
	}
	e, err := p.expr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{Expr: e}
	if p.kw("as") {
		name, err := p.ident()
		if err != nil {
			return selectItem{}, err
		}
		item.Alias = name
	} else if t := p.peek(); t.kind == tokIdent && !reserved[t.text] {
		p.pos++
		item.Alias = t.text
	}
	return item, nil
}

// fromItem := primary { joinClause }
func (p *parser) fromItem() (fromItem, error) {
	left, err := p.fromPrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt string
		switch {
		case p.kw("cross"):
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			jt = "cross"
		case p.kw("inner"):
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			jt = "inner"
		case p.kw("left"):
			p.kw("outer")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			jt = "left"
		case p.kw("right"):
			p.kw("outer")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			jt = "right"
		case p.kw("full"):
			p.kw("outer")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			jt = "full"
		case p.kw("join"):
			jt = "inner"
		default:
			return left, nil
		}
		right, err := p.fromPrimary()
		if err != nil {
			return nil, err
		}
		var on sexpr
		var onPos int
		if jt != "cross" {
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			onPos = p.peek().pos
			on, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		left = fJoin{Left: left, Right: right, Type: jt, On: on, OnPos: onPos}
	}
}

// fromPrimary := table [alias] | '(' select ')' alias
//
//	| '(' primary ALIGN primary ON expr ')' alias
//	| '(' primary NORMALIZE primary USING '(' cols ')' ')' alias
func (p *parser) fromPrimary() (fromItem, error) {
	if p.sym("(") {
		// Either a subquery or an ALIGN/NORMALIZE pair.
		if p.peek().kind == tokIdent && p.peek().text == "select" {
			sub, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			ol, err := p.orderLimit()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			alias, err := p.aliasOpt()
			if err != nil {
				return nil, err
			}
			if alias == "" {
				return nil, p.errf("subquery in FROM requires an alias")
			}
			return fSubquery{Query: sub, orderLimit: ol, Alias: alias}, nil
		}
		left, err := p.fromPrimary()
		if err != nil {
			return nil, err
		}
		switch {
		case p.kw("align"):
			right, err := p.fromPrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			thetaPos := p.peek().pos
			theta, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			alias, err := p.aliasOpt()
			if err != nil {
				return nil, err
			}
			return fAlign{Left: left, Right: right, Theta: theta, ThetaPos: thetaPos, Alias: alias}, nil
		case p.kw("normalize"):
			right, err := p.fromPrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("using"); err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var cols []string
			if !p.sym(")") {
				for {
					c, err := p.ident()
					if err != nil {
						return nil, err
					}
					cols = append(cols, c)
					if !p.sym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			alias, err := p.aliasOpt()
			if err != nil {
				return nil, err
			}
			return fNormalize{Left: left, Right: right, Using: cols, Alias: alias}, nil
		default:
			// Parenthesized plain from item.
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return left, nil
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	alias, err := p.aliasOpt()
	if err != nil {
		return nil, err
	}
	return fTable{Name: name, Alias: alias}, nil
}

func (p *parser) aliasOpt() (string, error) {
	if p.kw("as") {
		return p.ident()
	}
	if t := p.peek(); t.kind == tokIdent && !reserved[t.text] {
		p.pos++
		return t.text, nil
	}
	return "", nil
}

// Expression grammar (precedence climbing):
//
//	expr     := orTerm
//	orTerm   := andTerm { OR andTerm }
//	andTerm  := notTerm { AND notTerm }
//	notTerm  := NOT notTerm | predicate
//	predicate:= additive [cmp additive | BETWEEN additive AND additive |
//	            IS [NOT] NULL]
//	additive := multTerm { (+|-) multTerm }
//	multTerm := unary { (*|/|%) unary }
//	unary    := - unary | primaryExpr
func (p *parser) expr() (sexpr, error) { return p.orTerm() }

func (p *parser) orTerm() (sexpr, error) {
	l, err := p.andTerm()
	if err != nil {
		return nil, err
	}
	for pos := p.peek().pos; p.kw("or"); pos = p.peek().pos {
		r, err := p.andTerm()
		if err != nil {
			return nil, err
		}
		l = sBin{Op: "or", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) andTerm() (sexpr, error) {
	l, err := p.notTerm()
	if err != nil {
		return nil, err
	}
	for pos := p.peek().pos; p.kw("and"); pos = p.peek().pos {
		r, err := p.notTerm()
		if err != nil {
			return nil, err
		}
		l = sBin{Op: "and", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) notTerm() (sexpr, error) {
	if pos := p.peek().pos; p.kw("not") {
		x, err := p.notTerm()
		if err != nil {
			return nil, err
		}
		return sNot{X: x, Pos: pos}, nil
	}
	return p.predicate()
}

func (p *parser) predicate() (sexpr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol {
		switch op := p.peek().text; op {
		case "=", "<>", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			return sBin{Op: op, L: l, R: r}, nil
		}
	}
	if p.kw("between") {
		lo, err := p.additive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return sBetween{X: l, Lo: lo, Hi: hi}, nil
	}
	if p.kw("is") {
		neg := p.kw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return sIsNull{X: l, Negate: neg}, nil
	}
	return l, nil
}

func (p *parser) additive() (sexpr, error) {
	l, err := p.multTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.sym("+"):
			r, err := p.multTerm()
			if err != nil {
				return nil, err
			}
			l = sBin{Op: "+", L: l, R: r}
		case p.sym("-"):
			r, err := p.multTerm()
			if err != nil {
				return nil, err
			}
			l = sBin{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) multTerm() (sexpr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.sym("*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = sBin{Op: "*", L: l, R: r}
		case p.sym("/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = sBin{Op: "/", L: l, R: r}
		case p.sym("%"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = sBin{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (sexpr, error) {
	if p.sym("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return sBin{Op: "-", L: sNum{Text: "0"}, R: x}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (sexpr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		return sNum{Text: t.text}, nil
	case tokString:
		p.pos++
		return sStr{Text: t.text}, nil
	case tokLifted:
		p.pos++
		return sParam{Idx: int(t.slot)}, nil
	case tokParam:
		p.pos++
		idx, err := strconv.Atoi(t.text)
		if err != nil || idx < 1 {
			return nil, p.errf("bad parameter $%s (parameters are $1, $2, ...)", t.text)
		}
		return sParam{Idx: idx}, nil
	case tokSymbol:
		if p.sym("(") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch t.text {
		case "true":
			p.pos++
			return sBool{V: true}, nil
		case "false":
			p.pos++
			return sBool{V: false}, nil
		case "null":
			p.pos++
			return sNull{}, nil
		}
		if reserved[t.text] {
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
		p.pos++
		name := t.text
		// Function call?
		if p.sym("(") {
			call := sCall{Name: name, Pos: t.pos}
			if p.sym("*") {
				call.Star = true
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if !p.sym(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.sym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified reference?
		if p.sym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return sRef{Table: name, Col: col}, nil
		}
		return sRef{Col: name}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
