package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads an XML document from r and returns its root element.
//
// Parse accepts exactly the documents encoding/xml's strict
// Decoder.Token accepts, less those with character data other than
// whitespace outside the root element (XML 1.0 §2.1), and builds the
// tree a loop over Token would: comments, processing instructions and
// declarations are skipped, each run of text or CDATA section is trimmed
// and appended to its element's Text, and an attribute or element name
// keeps only its local part. A leading byte-order mark is not text.
// Every string in the tree is a copy, never a view of the input.
func Parse(r io.Reader) (*Node, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseString(b.String())
}

// ParseString parses an XML document held in a string (see Parse).
func ParseString(src string) (*Node, error) {
	s := scanner{src: src, names: map[string]string{}}
	if strings.HasPrefix(src, "\uFEFF") {
		s.pos = len("\uFEFF")
	}
	for s.pos < len(src) {
		if err := s.next(); err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
	}
	switch {
	case len(s.open) > 0:
		return nil, fmt.Errorf("xmltree: parse: unexpected EOF: <%s> is not closed", s.open[len(s.open)-1].name)
	case s.root == nil:
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	return s.root, nil
}

// scanner builds a tree from src in one pass.
type scanner struct {
	src   string
	pos   int
	root  *Node
	open  []frame           // the open elements, innermost last
	kids  []*Node           // children of the open elements, innermost last
	names map[string]string // name as written → its local part, copied out of src
	buf   []byte            // character data being decoded
}

// frame is an open element.
type frame struct {
	node *Node
	name string           // as written: the end tag must repeat it
	kids int              // where the element's children start in scanner.kids
	text *strings.Builder // the element's text once a second piece arrives
}

// next scans the character data or markup at s.pos.
func (s *scanner) next() error {
	var text string
	var copied bool
	var err error
	switch rest := s.src[s.pos:]; {
	case rest[0] != '<':
		text, copied, err = s.chars(0)
	case strings.HasPrefix(rest, "</"):
		return s.endTag()
	case strings.HasPrefix(rest, "<?"):
		return s.instruction()
	case strings.HasPrefix(rest, "<!--"):
		return s.comment()
	case strings.HasPrefix(rest, "<![CDATA["):
		s.pos += len("<![CDATA[")
		text, copied, err = s.chars(']')
	case strings.HasPrefix(rest, "<!["):
		return s.errorf(s.pos, "invalid <![ sequence")
	case strings.HasPrefix(rest, "<!"):
		return s.declaration()
	default:
		return s.startTag()
	}
	if err != nil {
		return err
	}
	if len(s.open) == 0 {
		if strings.Trim(text, " \t\r\n") != "" {
			return s.errorf(s.pos, "text outside the root element")
		}
		return nil
	}
	// As the Token loop did: each piece of text is trimmed on its own,
	// and the pieces are concatenated, here in linear time.
	f := &s.open[len(s.open)-1]
	switch t := strings.TrimSpace(text); {
	case t == "":
	case f.text != nil:
		f.text.WriteString(t)
	case f.node.Text != "":
		f.text = &strings.Builder{}
		f.text.WriteString(f.node.Text)
		f.text.WriteString(t)
	case copied:
		f.node.Text = t
	default:
		f.node.Text = strings.Clone(t)
	}
	return nil
}

// startTag scans a start tag at s.pos and opens its element, unless the
// tag is empty-element.
func (s *scanner) startTag() error {
	if len(s.open) == 0 && s.root != nil {
		return s.errorf(s.pos, "multiple root elements")
	}
	s.pos++
	name := s.name()
	local, ok := s.local(name)
	if !ok {
		return s.errorf(s.pos, "invalid element name %q", name)
	}
	n := &Node{Name: local}
	var index map[string]int // where each attribute is in n.Attrs, once it has many
	if s.root == nil {
		s.root = n
	} else {
		s.kids = append(s.kids, n)
	}
	for {
		s.space()
		if s.skip('>') {
			s.open = append(s.open, frame{node: n, name: name, kids: len(s.kids)})
			return nil
		}
		if s.skip('/') {
			if !s.skip('>') {
				return s.errorf(s.pos, "expected /> in <%s>", name)
			}
			return nil
		}
		attr := s.name()
		key, ok := s.local(attr)
		if !ok {
			return s.errorf(s.pos, "invalid attribute name %q in <%s>", attr, name)
		}
		s.space()
		if !s.skip('=') {
			return s.errorf(s.pos, "attribute %s without = in <%s>", attr, name)
		}
		s.space()
		if !s.skip('"') && !s.skip('\'') {
			return s.errorf(s.pos, "unquoted or missing value of attribute %s", attr)
		}
		v, copied, err := s.chars(s.src[s.pos-1])
		if err != nil {
			return err
		}
		if !copied {
			v = strings.Clone(v)
		}
		// A repeated attribute keeps its first place and its last value,
		// as SetAttr has it, without SetAttr's scan on a long list.
		if index == nil && len(n.Attrs) == 16 {
			index = make(map[string]int)
			for i, a := range n.Attrs {
				index[a.Name] = i
			}
		}
		if i, ok := index[key]; ok {
			n.Attrs[i].Value = v
		} else if index != nil {
			index[key] = len(n.Attrs)
			n.Attrs = append(n.Attrs, Attr{Name: key, Value: v})
		} else {
			n.SetAttr(key, v)
		}
	}
}

// endTag closes the innermost open element, giving it the children
// collected since it opened in a slice of their exact number.
func (s *scanner) endTag() error {
	at := s.pos
	s.pos += len("</")
	name := s.name()
	s.space()
	if !s.skip('>') {
		return s.errorf(s.pos, "invalid characters in end tag </%s", name)
	}
	if len(s.open) == 0 {
		return s.errorf(at, "end tag </%s> outside the root element", name)
	}
	f := s.open[len(s.open)-1]
	if f.name != name {
		return s.errorf(at, "element <%s> closed by </%s>", f.name, name)
	}
	s.open = s.open[:len(s.open)-1]
	if f.text != nil {
		f.node.Text = f.text.String()
	}
	if kids := s.kids[f.kids:]; len(kids) > 0 {
		f.node.Children = append([]*Node(nil), kids...)
		clear(kids)
		s.kids = s.kids[:f.kids]
	}
	return nil
}

// special marks the bytes chars must look at: markup, references, line
// ends, quotes, control characters and the start of every multi-byte
// sequence. Every other byte is plain character data.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf || strings.IndexByte(`<>&"'`, byte(c)) >= 0
	}
	return t
}()

// chars scans character data at s.pos up to its end, which it consumes:
// text ends before the next '<' or at the end of the input (end 0), an
// attribute value at its closing quote, and the body of a CDATA section
// (end ']') at "]]>". References are decoded outside CDATA, "\r\n" and a
// lone '\r' become '\n', and every character is checked. The value is a
// view of s.src unless copied is set.
func (s *scanner) chars(end byte) (v string, copied bool, err error) {
	src := s.src
	start, lit, i := s.pos, s.pos, s.pos
	s.buf = s.buf[:0]
scan:
	for {
		for i < len(src) && !special[src[i]] {
			i++
		}
		if i == len(src) {
			if end != 0 {
				return "", false, s.errorf(i, "unexpected EOF in character data")
			}
			break
		}
		c, cdata, quoted := src[i], end == ']', end == '"' || end == '\''
		switch {
		case end == 0 && c == '<' || quoted && c == end:
			break scan
		case c == '>' && !quoted && i-start >= 2 && src[i-2:i] == "]]":
			if !cdata {
				return "", false, s.errorf(i, "unescaped ]]> outside a CDATA section")
			}
			i -= len("]]")
			break scan
		case c == '>' || c == '"' || c == '\'' || cdata && (c == '<' || c == '&'):
			i++
		case c == '<':
			return "", false, s.errorf(i, "unescaped < in attribute value")
		case c == '&':
			s.buf = append(s.buf, src[lit:i]...)
			if i, err = s.reference(i); err != nil {
				return "", false, err
			}
			lit, copied = i, true
		case c == '\r':
			s.buf = append(append(s.buf, src[lit:i]...), '\n')
			if i++; i < len(src) && src[i] == '\n' {
				i++
			}
			lit, copied = i, true
		default:
			n, err := s.char(i)
			if err != nil {
				return "", false, err
			}
			i += n
		}
	}
	if copied {
		v = string(append(s.buf, src[lit:i]...))
	} else {
		v = src[start:i]
	}
	switch s.pos = i; end {
	case '"', '\'':
		s.pos++
	case ']':
		s.pos += len("]]>")
	}
	return v, copied, nil
}

// char checks the character starting at src[i] — a control byte or the
// first of a multi-byte sequence — and returns its length in bytes.
func (s *scanner) char(i int) (int, error) {
	r, n := utf8.DecodeRuneInString(s.src[i:])
	if r == utf8.RuneError && n == 1 {
		return 0, s.errorf(i, "invalid UTF-8")
	}
	if !isInCharacterRange(r) {
		return 0, s.errorf(i, "illegal character code %U", r)
	}
	return n, nil
}

// isInCharacterRange is the Char production of XML 1.0 §2.2.
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

var predefined = map[string]byte{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// reference decodes the character or entity reference at src[i] == '&'
// into s.buf and returns the index past its ';'. Only the five
// predefined entities are known.
func (s *scanner) reference(i int) (int, error) {
	if k := strings.IndexByte(s.src[i:], ';'); k >= 0 {
		body, end := s.src[i+1:i+k], i+k+1
		if c, ok := predefined[body]; ok {
			s.buf = append(s.buf, c)
			return end, nil
		}
		if num, ok := strings.CutPrefix(body, "#"); ok {
			base := 10
			if hex, ok := strings.CutPrefix(num, "x"); ok {
				num, base = hex, 16
			}
			n, err := strconv.ParseUint(num, base, 64)
			// A surrogate encodes as U+FFFD, as string(rune(n)) does.
			if r := rune(n); err == nil && n <= unicode.MaxRune && (!utf8.ValidRune(r) || isInCharacterRange(r)) {
				s.buf = utf8.AppendRune(s.buf, r)
				return end, nil
			}
		}
	}
	return 0, s.errorf(i, "invalid character entity %q", s.src[i:min(len(s.src), i+12)])
}

// instruction skips a processing instruction at s.pos. An XML
// declaration is checked by encoding/xml itself: version 1.0 and a UTF-8
// encoding are all it reads.
func (s *scanner) instruction() error {
	start := s.pos
	s.pos += len("<?")
	target := s.name()
	if !validName(target) {
		return s.errorf(s.pos, "invalid processing instruction target %q", target)
	}
	s.space()
	end := strings.Index(s.src[s.pos:], "?>")
	if end < 0 {
		return s.errorf(len(s.src), "unexpected EOF in processing instruction")
	}
	s.pos += end + len("?>")
	if target == "xml" {
		if _, err := xml.NewDecoder(strings.NewReader(s.src[start:s.pos])).RawToken(); err != nil {
			return s.errorf(start, "%v", err)
		}
	}
	return nil
}

// comment skips a comment at s.pos; "--" may only end it.
func (s *scanner) comment() error {
	body := s.pos + len("<!--")
	end := strings.Index(s.src[body:], "--")
	if end < 0 || body+end+2 == len(s.src) {
		return s.errorf(len(s.src), "unexpected EOF in comment")
	}
	if end += body + 2; s.src[end] != '>' {
		return s.errorf(end, `"--" in a comment`)
	}
	s.pos = end + 1
	return nil
}

// declaration skips a <!DOCTYPE …> or other declaration at s.pos,
// internal subset included, by encoding/xml's rule: it ends at the first
// '>' outside quotes that closes no '<' it contains, comments in it are
// skipped whole, and the byte after "<!" is not looked at.
func (s *scanner) declaration() error {
	i := s.pos + len("<!x")
	if i <= len(s.src) && s.src[i-1] == '-' {
		return s.errorf(s.pos, "<!- that does not open a comment")
	}
	var quote byte
	depth := 0
	for ; i < len(s.src); i++ {
		switch c := s.src[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>' && depth == 0:
			s.pos = i + 1
			return nil
		case c == '>':
			depth--
		case strings.HasPrefix(s.src[i:], "<!--"):
			end := strings.Index(s.src[i+4:], "-->")
			if end < 0 {
				return s.errorf(len(s.src), "unexpected EOF in declaration")
			}
			i += 4 + end + 2
		case c == '<':
			depth++
		}
	}
	return s.errorf(len(s.src), "unexpected EOF in declaration")
}

// name scans a name at s.pos as encoding/xml delimits one: ASCII name
// bytes and any byte ≥ 0x80. It may be empty or invalid.
func (s *scanner) name() string {
	i := s.pos
	for i < len(s.src) && (isNameByte(s.src[i]) || s.src[i] >= utf8.RuneSelf) {
		i++
	}
	name := s.src[s.pos:i]
	s.pos = i
	return name
}

// local returns the local part of an element or attribute name as
// written — what follows the one colon of a prefixed name — copied out
// of the input once per distinct name, or false for an invalid name.
func (s *scanner) local(name string) (string, bool) {
	if local, ok := s.names[name]; ok {
		return local, true
	}
	if !validName(name) || strings.Count(name, ":") > 1 {
		return "", false
	}
	local := name
	if prefix, after, ok := strings.Cut(name, ":"); ok && prefix != "" && after != "" {
		local = after
	}
	local = strings.Clone(local)
	s.names[name] = local
	return local, true
}

// validName reports whether name is an XML name. A non-ASCII name is
// left to encoding/xml's own rule, which its Unicode tables define.
func validName(name string) bool {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			_, err := xml.NewDecoder(strings.NewReader("<?" + name + "?>")).RawToken()
			return err == nil
		}
	}
	// Every ASCII name byte may follow the first.
	return name != "" && (name[0] == ':' || name[0] == '_' || 'A' <= name[0] && name[0] <= 'Z' || 'a' <= name[0] && name[0] <= 'z')
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// space skips XML white space.
func (s *scanner) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// skip consumes c if it is the next byte.
func (s *scanner) skip(c byte) bool {
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// errorf reports a syntax error at byte offset i, by line.
func (s *scanner) errorf(i int, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", 1+strings.Count(s.src[:i], "\n"), fmt.Sprintf(format, args...))
}
