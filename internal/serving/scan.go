package serving

import (
	"errors"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNestingDepth bounds how deeply arrays and objects may nest, counted from
// the outermost: encoding/json's bound, so a body it refuses is refused here.
const maxNestingDepth = 10000

var errEnd = errors.New("unexpected end of JSON input")

// scanner reads JSON text by encoding/json's grammar, one value at a time,
// and never recurses: the predict body's fixed levels are read by the
// request code, and what nests below them by container, which keeps its own
// stack.
type scanner struct {
	data []byte
	at   int
}

// peek skips white space and returns the next byte, or 0 at the end (a NUL
// byte is never valid where peek is called, so the two need not differ).
func (s *scanner) peek() byte {
	for ; s.at < len(s.data); s.at++ {
		switch c := s.data[s.at]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// unexpected reports the byte at s.at, or the end of the input.
func (s *scanner) unexpected(context string) error {
	if s.at >= len(s.data) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.data[s.at], context, s.at)
}

// expect consumes c after any white space.
func (s *scanner) expect(c byte, context string) error {
	if s.peek() != c {
		return s.unexpected(context)
	}
	s.at++
	return nil
}

// word consumes the literal w (true, false or null) at s.at.
func (s *scanner) word(w string) error {
	for i := 0; i < len(w); i++ {
		if s.at >= len(s.data) || s.data[s.at] != w[i] {
			return s.unexpected("in literal " + w)
		}
		s.at++
	}
	return nil
}

// str consumes the string whose opening quote is at s.at and returns the
// text between its quotes. plain reports that the text is its own value: no
// escape and no byte outside ASCII, which unquote would have to examine.
func (s *scanner) str() (text []byte, plain bool, err error) {
	start := s.at + 1
	plain = true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.at = i + 1
			return s.data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i++; i >= len(s.data) {
				return nil, false, errEnd
			}
			switch s.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := i + 4; i < end; {
					if i++; i >= len(s.data) {
						return nil, false, errEnd
					}
					if hexDigit(s.data[i]) < 0 {
						s.at = i
						return nil, false, s.unexpected("in \\u escape")
					}
				}
			default:
				s.at = i
				return nil, false, s.unexpected("in string escape")
			}
		case c < ' ':
			s.at = i
			return nil, false, s.unexpected("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, errEnd
}

// name consumes an object member's name and the colon after it, and returns
// the name unquoted.
func (s *scanner) name() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.unexpected("looking for beginning of object key string")
	}
	text, plain, err := s.str()
	if err != nil {
		return nil, err
	}
	if !plain {
		text = unquote(text)
	}
	return text, s.expect(':', "after object key")
}

// number consumes the number at s.at: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() error {
	d, i := s.data, s.at
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	default:
		s.at = i
		return s.unexpected("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			s.at = i
			return s.unexpected("after decimal point in numeric literal")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.at = i
			return s.unexpected("in exponent of numeric literal")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	s.at = i
	return nil
}

// value consumes any JSON value; depth is the nesting level of the array or
// object that holds it.
func (s *scanner) value(depth int) error {
	if c := s.peek(); c != '[' && c != '{' {
		return s.scalar(c)
	}
	return s.container(depth + 1)
}

// scalar consumes the number, string, true, false or null that begins with
// c, the byte at s.at.
func (s *scanner) scalar(c byte) error {
	switch {
	case c == '-' || isDigit(c):
		return s.number()
	case c == '"':
		_, _, err := s.str()
		return err
	case c == 't':
		return s.word("true")
	case c == 'f':
		return s.word("false")
	case c == 'n':
		return s.word("null")
	}
	return s.unexpected("looking for beginning of value")
}

// container consumes the array or object at s.at, which sits at nesting level
// depth, and everything nested in it. open holds the closing byte of each
// container not yet closed, so the walk needs no recursion.
func (s *scanner) container(depth int) error {
	var open []byte
	for {
		// s.at is at the start of a value.
		switch c := s.peek(); c {
		case '[', '{':
			if depth+len(open) > maxNestingDepth {
				return fmt.Errorf("exceeded max depth at offset %d", s.at)
			}
			s.at++
			if s.peek() == c+2 { // ']' and '}' follow '[' and '{' by two
				s.at++
				break
			}
			open = append(open, c+2)
			if c == '{' {
				if _, err := s.name(); err != nil {
					return err
				}
			}
			continue
		default:
			if err := s.scalar(c); err != nil {
				return err
			}
		}
		// A value is complete: close what it completes, then go on to the
		// next element or member.
		for {
			if len(open) == 0 {
				return nil
			}
			switch c := s.peek(); c {
			case open[len(open)-1]:
				s.at++
				open = open[:len(open)-1]
				continue
			case ',':
				s.at++
				if open[len(open)-1] == '}' {
					if _, err := s.name(); err != nil {
						return err
					}
				}
			default:
				return s.unexpected("after array element or object member")
			}
			break
		}
	}
}

// object consumes the object at s.at, calling member with each unquoted name
// and s.at at the member's value, which member must consume.
func (s *scanner) object(member func(name []byte) error) error {
	s.at++
	if s.peek() == '}' {
		s.at++
		return nil
	}
	for {
		name, err := s.name()
		if err != nil {
			return err
		}
		if err := member(name); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.at++
		case '}':
			s.at++
			return nil
		default:
			return s.unexpected("after object key:value pair")
		}
	}
}

// array consumes the array at s.at, calling element with s.at at each
// element, which element must consume.
func (s *scanner) array(element func() error) error {
	s.at++
	if s.peek() == ']' {
		s.at++
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.at++
		case ']':
			s.at++
			return nil
		default:
			return s.unexpected("after array element")
		}
	}
}

// unquote decodes the text of a string str accepted, as encoding/json does:
// escapes are resolved, and a byte that is not UTF-8 or an escaped UTF-16
// surrogate that is not half of a pair becomes U+FFFD.
func unquote(text []byte) []byte {
	b := make([]byte, 0, len(text))
	for i := 0; i < len(text); {
		switch c := text[i]; {
		case c == '\\' && text[i+1] == 'u':
			r := hex4(text[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+1 < len(text) && text[i] == '\\' && text[i+1] == 'u' {
					r2 = hex4(text[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape[text[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(text[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hex digits str checked.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(hexDigit(c))
	}
	return r
}

func hexDigit(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
