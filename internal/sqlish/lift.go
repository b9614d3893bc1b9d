package sqlish

import (
	"strconv"
	"strings"

	"talign/internal/value"
)

// Literal lifting: the unit of planning is the statement SHAPE, not the
// statement text. ParseLifted — the server's one entry point for SQL
// text — rewrites the token stream so that every literal that is a direct
// operand of a comparison or BETWEEN inside a WHERE or ON condition
// becomes a hidden parameter slot, numbered after the caller's own
// $1..$N, and keeps the literals' values beside the tokens. Two
// statements that differ only in such literals have the same shape key,
// so the second one binds its values into the first one's plan instead of
// being parsed, analyzed and optimized again.
//
// Lifting a literal can never change a result: a slot is bound to exactly
// the value the text carried, and the analyzer types it by the literal's
// kind (which is part of the shape key). What it could cost is plan
// quality, so the plan is costed with the first-seen values (expr.Param's
// Peek) and zone-map pruning resolves its bounds from the bound values at
// every execution (package plan).
//
// Not lifted, because the analyzer reads them as text or needs their
// value to build the plan: the select list and GROUP BY / HAVING (matched
// against each other by rendered text), ORDER BY ordinals, LIMIT / OFFSET,
// operands of arithmetic, NULL / TRUE / FALSE, DDL paths — and a literal
// compared with a literal, which constant folding should still see.
// EXPLAIN and EXPLAIN ANALYZE statements are not lifted at all: they
// render the plan of the text as written.
//
// The rewrite is lexical, which is what lets a plan-cache hit skip the
// parser: where a condition starts (WHERE, ON) and ends (the next clause
// keyword, or the parenthesis that closes the enclosing subquery or ALIGN)
// is visible in the tokens, and inside a condition every number or string
// token is a primary expression, which is exactly where the grammar takes
// a placeholder too. Whatever the rule picks inside a condition is
// therefore safe; its tests on the neighbouring tokens only keep it to
// the operands worth lifting.

// ParseLifted runs the Parse stage the way the server does: ONE lex of
// sql yields the shape key the plan caches use (ShapeKey) and the values
// of the lifted literals, which is all a plan-cache hit needs
// (Prepared.StreamFor); the parse itself — over the same tokens, lifted
// literals appearing as hidden placeholders — is deferred to the first
// use of the AST (Prepare on a miss, local or distributed) and
// happens at most once. A syntax error therefore surfaces from ParseLifted
// for statement kinds it parses at once (EXPLAIN, ANALYZE, CREATE, DROP)
// and from Prepare for the rest — an unparsable text has no cached plan
// to hit, so it always gets there; either way the error points into the
// original text.
func ParseLifted(sql string) (*Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	st := &Statement{SQL: sql}
	if first := toks[0]; first.kind == tokIdent {
		switch first.text {
		case "explain", "analyze", "create", "drop":
			// Never lifted, and the server asks what they are before it
			// plans anything: parse now.
			st.shape = renderTokens(sql, toks, nil)
			st.ast, err = parseTokens(sql, toks)
			if err != nil {
				return nil, err
			}
			return st, nil
		}
	}
	for _, t := range toks {
		if t.kind == tokParam {
			if n, err := strconv.Atoi(t.text); err == nil && n > st.nuser {
				st.nuser = n
			}
		}
	}
	st.deferred = true
	st.toks, st.lifted = liftTokens(toks, st.nuser)
	st.shape = renderTokens(sql, st.toks, st.lifted)
	return st, nil
}

// ShapeKey is the plan-cache key text of a statement parsed by
// ParseLifted: its normalized rendering with every lifted literal
// replaced by its hidden slot's $N, followed by one kind letter per slot,
// so two literals of different kinds never share a plan (ssn = 5 and
// ssn = 'x' type-check differently). A statement with nothing lifted —
// any statement parsed by ParseNormalized — has its plain normalized text
// as key. The rendering before the kind suffix is itself valid SQL over
// the caller's and the hidden parameters (Args).
func (st *Statement) ShapeKey() string { return st.shape }

// ShapeSQL is ShapeKey without the kind suffix: the statement as SQL text
// over $1..$N+K, executable with Args' values.
func (st *Statement) ShapeSQL() string {
	if i := strings.IndexByte(st.shape, 0); i >= 0 {
		return st.shape[:i]
	}
	return st.shape
}

// Args returns the values for every placeholder of the lifted statement:
// the caller's params for $1..$N followed by the lifted literals for the
// hidden slots. The caller's count is checked here — in the caller's
// numbering — because a short list would shift a lifted value into one
// of the caller's slots.
func (st *Statement) Args(params []value.Value) ([]value.Value, error) {
	return bindArgs(st.nuser, params, st.lifted)
}

// bindArgs checks the caller's parameter count and appends the lifted
// values.
func bindArgs(nuser int, params, lifted []value.Value) ([]value.Value, error) {
	if len(params) != nuser {
		return nil, requestError("statement wants %d parameter(s), got %d", nuser, len(params))
	}
	if len(lifted) == 0 {
		return params, nil
	}
	args := make([]value.Value, 0, len(params)+len(lifted))
	return append(append(args, params...), lifted...), nil
}

// liftTokens rewrites toks in place: each liftable literal becomes a
// tokLifted token carrying its placeholder index — nuser+1 for the first,
// after the caller's own $1..$nuser (a unary minus in front of it is
// dropped, the value carries the sign) — and the literals' values come
// back in slot order.
func liftTokens(toks []token, nuser int) ([]token, []value.Value) {
	var lifted []value.Value
	out := toks[:0]
	depth := 0
	cond := -1       // paren depth of the condition being read, -1 outside one
	between := -1    // paren depth of a BETWEEN still waiting for its AND
	hiAt := -1       // token index where that BETWEEN's upper bound starts
	skipAt := -1     // token index of an operand facing a literal: not lifted
	var p1, p2 token // the two tokens before toks[i], as lexed
	for i, lexed := range toks {
		t := lexed
		switch t.kind {
		case tokSymbol:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if depth < cond {
					cond, between = -1, -1
				}
			}
		case tokIdent:
			switch t.text {
			case "where", "on":
				cond, between = depth, -1
			case "between":
				if cond >= 0 {
					between = depth
				}
			case "and":
				if between == depth {
					between, hiAt = -1, i+1
				}
			default:
				if endsCondition[t.text] {
					cond, between = -1, -1
				}
			}
		case tokNumber, tokString:
			if cond < 0 {
				break
			}
			// A minus in front of a number is its sign when nothing that
			// could be a left operand precedes the minus.
			prev, start := p1, i
			neg := t.kind == tokNumber && isSym(p1, "-") && !endsOperand(p2)
			if neg {
				prev, start = p2, i-1
			}
			next := toks[i+1] // there is always an EOF token
			right := (isCmp(prev) || isKw(prev, "between") || hiAt == start) && !isArith(next)
			left := startsOperand(prev) && (isCmp(next) || isKw(next, "between"))
			if left {
				// The operand across the operator: a literal there makes this
				// a comparison between constants, which stays foldable.
				if o := i + 2; isLiteral(toks[o]) || (isSym(toks[o], "-") && toks[o+1].kind == tokNumber) {
					skipAt = o
					break
				}
			}
			if (!left && !right) || skipAt == start {
				break
			}
			v, ok := literalValue(t, neg)
			if !ok {
				break // the analyzer rejects it with the statement's own text
			}
			if neg {
				out = out[:len(out)-1]
			}
			lifted = append(lifted, v)
			t.kind, t.slot = tokLifted, int32(nuser+len(lifted))
		}
		out = append(out, t)
		p2, p1 = p1, lexed
	}
	return out, lifted
}

// endsCondition lists the keywords that can follow a WHERE or ON
// condition: reading one means the condition is over.
var endsCondition = map[string]bool{
	"select": true, "from": true, "group": true, "having": true,
	"order": true, "limit": true, "offset": true, "union": true,
	"intersect": true, "except": true, "join": true, "inner": true,
	"left": true, "right": true, "full": true, "cross": true,
	"align": true, "normalize": true, "using": true, "with": true,
}

func isSym(t token, s string) bool { return t.kind == tokSymbol && t.text == s }
func isKw(t token, w string) bool  { return t.kind == tokIdent && t.text == w }

func isLiteral(t token) bool { return t.kind == tokNumber || t.kind == tokString }

func isCmp(t token) bool {
	if t.kind != tokSymbol {
		return false
	}
	switch t.text {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func isArith(t token) bool {
	if t.kind != tokSymbol {
		return false
	}
	switch t.text {
	case "+", "-", "*", "/", "%":
		return true
	}
	return false
}

// startsOperand reports whether the token after t starts a predicate's
// left operand.
func startsOperand(t token) bool {
	if t.kind == tokIdent {
		switch t.text {
		case "where", "on", "and", "or", "not":
			return true
		}
		return false
	}
	return isSym(t, "(")
}

// endsOperand reports whether t can end an expression, which makes a
// minus after it a subtraction.
func endsOperand(t token) bool {
	switch t.kind {
	case tokNumber, tokString, tokParam, tokLifted:
		return true
	case tokIdent:
		return !reserved[t.text] || t.text == "null" || t.text == "true" || t.text == "false"
	}
	return isSym(t, ")")
}

// literalValue is the value of a number or string token, negated when
// neg. A number the analyzer would reject has none.
func literalValue(t token, neg bool) (value.Value, bool) {
	if t.kind == tokString {
		return value.NewString(t.text), true
	}
	if strings.Contains(t.text, ".") {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Null, false
		}
		if neg {
			f = 0 - f // what the un-lifted "0 - f" evaluates to
		}
		return value.NewFloat(f), true
	}
	i, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return value.Null, false
	}
	if neg {
		i = -i
	}
	return value.NewInt(i), true
}

// renderTokens renders a token stream in the canonical cache-key form:
// single spaces, lower-cased keywords and identifiers, canonical symbols,
// so formatting and case differences (but nothing semantic) map to the
// same key. A lifted literal renders as its hidden slot's $N, and the
// lifted values' kinds follow the text after a NUL byte.
func renderTokens(src string, toks []token, lifted []value.Value) string {
	var b strings.Builder
	b.Grow(len(src) + 2*len(lifted) + 1)
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokString:
			b.WriteByte('\'')
			if strings.IndexByte(t.text, '\'') < 0 {
				b.WriteString(t.text)
			} else {
				b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			}
			b.WriteByte('\'')
		case tokParam:
			b.WriteByte('$')
			b.WriteString(t.text)
		case tokLifted:
			b.WriteByte('$')
			b.WriteString(strconv.Itoa(int(t.slot)))
		default:
			b.WriteString(t.text)
		}
	}
	if len(lifted) > 0 {
		b.WriteByte(0)
		for _, v := range lifted {
			b.WriteByte(v.Kind().String()[0]) // i(nt), f(loat), s(tring)
		}
	}
	return b.String()
}
