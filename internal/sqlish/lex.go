// Package sqlish implements the SQL dialect of Sec. 6: the standard SELECT
// fragment (WITH, joins including outer joins, WHERE, GROUP BY, HAVING, set
// operations, ORDER BY) extended with the paper's keywords:
//
//	FROM (r ALIGN s ON θ) x            -- temporal alignment (Sec. 6.2)
//	FROM (r NORMALIZE s USING (b)) x   -- temporal normalization (Sec. 6.3)
//	SELECT ABSORB ...                  -- absorb instead of DISTINCT
//
// Valid time is exposed through the virtual columns Ts and Te: selecting
// them (unaliased) sets the result's valid time; aliasing them (SELECT Ts
// AS Us, Te AS Ue, *) propagates the timestamps as ordinary data, which is
// how queries obtain extended snapshot reducibility.
package sqlish

import (
	"strings"
	"unicode"

	"talign/internal/faultinject"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
	tokParam  // $N parameter placeholder; text holds the digits
	tokLifted // a number or string lifted into the hidden placeholder $slot (lift.go)
)

type token struct {
	kind tokKind
	slot int32  // tokLifted: the hidden placeholder's index
	text string // identifiers are lower-cased; symbols canonical
	pos  int
}

// lexer tokenizes the input.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes one statement. The token slice is sized once from the
// text's length (a token spans three source bytes or more in all but the
// densest text), and an identifier's lower-case spelling is taken from
// the source bytes or the keyword table wherever it can be (see
// lowerIdent), so a statement costs about as many allocations as it has
// mixed-case names and escaped strings.
func lex(src string) ([]token, error) {
	// Test seam: the "one lex per statement" tests count visits here.
	if err := faultinject.Hit("sqlish.lex"); err != nil {
		return nil, err
	}
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+2)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: lowerIdent(l.src[start:l.pos]), pos: start})
		case c >= '0' && c <= '9':
			seenDot := false
			for l.pos < len(l.src) {
				d := l.src[l.pos]
				if d == '.' && !seenDot {
					seenDot = true
					l.pos++
					continue
				}
				if d < '0' || d > '9' {
					break
				}
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case c == '$':
			l.pos++
			digits := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			if l.pos == digits {
				return nil, newErrorAt(l.src, start, "expected parameter number after $")
			}
			l.toks = append(l.toks, token{kind: tokParam, text: l.src[digits:l.pos], pos: start})
		case c == '\'':
			l.pos++
			escaped := false
			for {
				if l.pos >= len(l.src) {
					return nil, newErrorAt(l.src, start, "unterminated string")
				}
				if l.src[l.pos] == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						escaped = true
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				l.pos++
			}
			text := l.src[start+1 : l.pos-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
		default:
			sym := l.symbol()
			if sym == "" {
				return nil, newErrorAt(l.src, l.pos, "unexpected character %q", c)
			}
			l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

// symbol consumes one operator or punctuation token.
func (l *lexer) symbol() string {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		if two == "!=" {
			return "<>"
		}
		return two
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '.', '*', '+', '-', '/', '%', '=', '<', '>':
		l.pos++
		return l.src[l.pos-1 : l.pos]
	}
	return ""
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lowerIdent returns an identifier's lower-case spelling without
// allocating where it can: the source bytes themselves when they hold no
// upper-case letter, the keyword table's own string when the identifier
// is one of its words in any case (SELECT, From, Ts), and a lowered copy
// only for the rest.
func lowerIdent(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return strings.ToLower(s) // non-ASCII: the general lowering
		}
		if c >= 'A' && c <= 'Z' {
			hasUpper = true
		}
	}
	if !hasUpper {
		return s
	}
	var buf [maxKeywordLen]byte
	if len(s) <= len(buf) {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if w, ok := keywords[string(buf[:len(s)])]; ok {
			return w
		}
	}
	return strings.ToLower(s)
}

// maxKeywordLen bounds the keyword table's words (the longest is
// "normalize" / "intersect").
const maxKeywordLen = 9

// keywords interns the lower-case spelling of the words statements
// usually write in upper or mixed case: every reserved word, and the
// unreserved names the grammar and the analyzer give a meaning to.
var keywords = func() map[string]string {
	m := make(map[string]string, len(reserved)+16)
	for w := range reserved {
		m[w] = w
	}
	for _, w := range []string{
		"ts", "te", "count", "sum", "avg", "min", "max", "dur", "period",
		"create", "table", "drop", "csv",
	} {
		m[w] = w
	}
	return m
}()

// reserved words that cannot be used as implicit aliases.
var reserved = map[string]bool{
	"select": true, "distinct": true, "absorb": true, "from": true,
	"where": true, "group": true, "by": true, "having": true,
	"order": true, "asc": true, "desc": true, "as": true, "with": true,
	"align": true, "normalize": true, "using": true, "on": true,
	"join": true, "inner": true, "left": true, "right": true, "full": true,
	"outer": true, "cross": true, "and": true, "or": true, "not": true,
	"between": true, "is": true, "null": true, "union": true,
	"intersect": true, "except": true, "true": true, "false": true,
	"explain": true, "analyze": true, "limit": true, "offset": true,
}
