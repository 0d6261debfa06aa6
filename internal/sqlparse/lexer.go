// Package sqlparse implements monetlite's SQL frontend: a hand-written lexer
// and recursive-descent parser producing an untyped AST. The supported
// dialect covers the DDL/DML surface of the paper plus everything the 22
// TPC-H queries need verbatim (joins, subqueries, EXISTS, CASE, EXTRACT,
// LIKE, BETWEEN, date/interval arithmetic, GROUP BY aliases, LIMIT), and
// window functions: fn(args) OVER (PARTITION BY … ORDER BY … [ROWS …]).
// The window-clause keywords are soft — usable as plain identifiers — so
// schemas predating them keep parsing.
package sqlparse

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer output.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp     // operators and punctuation
	TokParamQ // ? placeholder
)

// Token is one lexical element with its source position (for errors).
type Token struct {
	Kind TokenKind
	Text string // keywords upper-cased, identifiers lower-cased
	Raw  string
	Pos  int
}

var keywords = map[string]bool{}

func init() {
	for _, k := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ASC DESC
		AND OR NOT IN IS NULL LIKE BETWEEN EXISTS CASE WHEN THEN ELSE END
		CAST EXTRACT SUBSTRING DISTINCT ALL JOIN INNER LEFT RIGHT OUTER ON
		CREATE DROP TABLE INDEX ORDER INSERT INTO VALUES DELETE UPDATE SET
		BEGIN COMMIT ROLLBACK TRANSACTION DATE INTERVAL YEAR MONTH DAY
		TRUE FALSE PRIMARY KEY FOREIGN REFERENCES UNIQUE IF
		BOOLEAN BOOL TINYINT SMALLINT INTEGER INT BIGINT DOUBLE FLOAT REAL
		DECIMAL NUMERIC VARCHAR CHAR TEXT STRING CLOB PRECISION FOR
		CHECKPOINT WORK START
		OVER PARTITION ROWS PRECEDING FOLLOWING UNBOUNDED CURRENT ROW`) {
		keywords[k] = true
	}
}

// Lexer splits SQL text into tokens.
type Lexer struct {
	src  string
	pos  int
	toks []Token
}

// Lex tokenizes the input, returning all tokens plus a trailing EOF token.
func Lex(src string) ([]Token, error) {
	l := &Lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.Kind == TokEOF {
			return l.toks, nil
		}
	}
}

func (l *Lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		raw := l.src[start:l.pos]
		up := strings.ToUpper(raw)
		if keywords[up] {
			return Token{Kind: TokKeyword, Text: up, Raw: raw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: strings.ToLower(raw), Raw: raw, Pos: start}, nil
	case c == '"': // quoted identifier
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return Token{}, fmt.Errorf("sql: unterminated quoted identifier at %s", PosString(l.src, start))
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return Token{Kind: TokIdent, Text: text, Raw: text, Pos: start}, nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if ch >= '0' && ch <= '9' || ch == 'e' || ch == 'E' {
				if ch == 'e' || ch == 'E' {
					l.pos++
					if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
						l.pos++
					}
					continue
				}
				l.pos++
				continue
			}
			break
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Raw: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Raw: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return Token{}, fmt.Errorf("sql: unterminated string literal at %s", PosString(l.src, start))
	case c == '?':
		l.pos++
		return Token{Kind: TokParamQ, Text: "?", Pos: start}, nil
	default:
		for _, op := range [...]string{"<>", "<=", ">=", "!=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				text := op
				if op == "!=" {
					text = "<>"
				}
				return Token{Kind: TokOp, Text: text, Pos: start}, nil
			}
		}
		if strings.ContainsRune("+-*/%(),;=<>.", rune(c)) {
			l.pos++
			return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected character %q at %s", c, PosString(l.src, start))
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += end + 4
		default:
			return
		}
	}
}

// LineCol converts a byte offset into 1-based line and column numbers.
func LineCol(src string, pos int) (line, col int) {
	if pos > len(src) {
		pos = len(src)
	}
	line, col = 1, 1
	for i := 0; i < pos; i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// PosString renders a byte offset as "line L, column C (offset N)" for error
// messages.
func PosString(src string, pos int) string {
	line, col := LineCol(src, pos)
	return fmt.Sprintf("line %d, column %d (offset %d)", line, col, pos)
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
