package ipm

// This file is the fast tokenizer of the XML profiling log: a zero-copy
// scanner over the raw bytes that reports elements and attributes to
// the decoder (decode.go) directly, without the per-token boxing of
// encoding/xml.
//
// Correctness contract: on every input the scanner accepts, the
// decoder sees exactly the elements, attributes and end tags that the
// non-strict encoding/xml token walk would report, so both tokenizers
// produce the same events, warnings, task counts and error
// (FuzzScanVsWalk). The scanner earns that by handling only the clean
// core grammar and bailing out (DecodeXML then replays the bytes
// through the token walk) on anything where encoding/xml's behavior is
// not replicated bit-for-bit here:
//
//   - any '&' (entity expansion) or byte outside printable ASCII +
//     \t\n\r in text, attribute values or processing instructions (the
//     grammar below admits no other bytes anywhere else);
//   - truncation: EOF inside a tag or with elements still open
//     (encoding/xml's error text is embedded in the salvage warning);
//   - mismatched end tags (non-strict encoding/xml auto-closes
//     intermediate elements — a different event stream);
//   - unquoted or valueless attributes, '<' or '\r' inside attribute
//     values ('\r' is normalized to '\n' by encoding/xml);
//   - ':' in names (namespace resolution), names not matching
//     [A-Za-z_][A-Za-z0-9_.-]*;
//   - "<!" constructs (comments error on inner "--" even non-strict,
//     directives are rare) and "]]>" in character data (always an
//     error);
//   - "<?xml ...?>" processing instructions declaring a version other
//     than 1.0 or a non-UTF-8 encoding (encoding/xml errors on those
//     anywhere in the document).
//
// Everything else encoding/xml tolerates is tolerated identically here:
// multiple roots, stray top-level text, duplicate attributes (last
// wins), whitespace around '=', '\t'/'\n' inside attribute values,
// self-closing tags and unknown elements; the salvage state machine
// itself is the decoder's, shared with the token walk.

// cleanByte marks the bytes on which the scanner is byte-exact with
// encoding/xml: printable ASCII plus tab/LF/CR, minus '&' (entity
// expansion rewrites the text).
var cleanByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	t['\t'], t['\n'], t['\r'] = true, true, true
	t['&'] = false
	return
}()

// scanner tokenizes data for its embedded decoder.
type scanner struct {
	decoder
	data  []byte
	pos   int
	stack [][]byte // open element names (slices into data)
}

func (s *scanner) run() bool {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c != '<' {
			if !s.text() {
				return false
			}
			continue
		}
		if s.pos+1 >= len(s.data) {
			return false // EOF mid-tag: encoding/xml syntax error
		}
		switch s.data[s.pos+1] {
		case '/':
			if !s.endTag() {
				return false
			}
		case '?':
			if !s.procInst() {
				return false
			}
		case '!':
			return false // comments/directives: off the fast path
		default:
			if !s.startTag() {
				return false
			}
		}
	}
	// Clean EOF is only clean with nothing open.
	return len(s.stack) == 0
}

// text consumes character data up to the next '<'. encoding/xml
// accepts anything here except the CDATA terminator "]]>"; content is
// discarded (the decoder ignores all character data).
func (s *scanner) text() bool {
	seg := s.data[s.pos:]
	end := len(seg)
	for i := 0; i < end; i++ {
		c := seg[i]
		if c == '<' {
			end = i
			break
		}
		if !cleanByte[c] || c == ']' && i+2 < len(seg) && seg[i+1] == ']' && seg[i+2] == '>' {
			return false
		}
	}
	s.pos += end
	return true
}

// procInst consumes <?target ...?>. encoding/xml accepts any PI, but for
// a target of exactly "xml" it errors on a version other than 1.0 and
// on any charset other than UTF-8 — a document-wide error this scanner
// cannot replicate, so those bail.
func (s *scanner) procInst() bool {
	s.pos += 2 // "<?"
	name := s.readName()
	if name == nil {
		return false
	}
	bodyStart := s.pos
	for {
		if s.pos+1 >= len(s.data) {
			return false // EOF inside PI
		}
		if s.data[s.pos] == '?' && s.data[s.pos+1] == '>' {
			break
		}
		if !cleanByte[s.data[s.pos]] {
			return false
		}
		s.pos++
	}
	body := s.data[bodyStart:s.pos]
	s.pos += 2
	if string(name) == "xml" {
		if v := piParam(body, "version="); len(v) > 0 && string(v) != "1.0" {
			return false
		}
		if enc := piParam(body, "encoding="); len(enc) > 0 && !equalFoldASCII(enc, "utf-8") {
			return false
		}
	}
	return true
}

// piParam returns the quoted value of param (ending in '=') in a PI
// body, found the way encoding/xml's procInst finds it: a substring
// match, where an occurrence not followed by a quote is skipped along
// with the byte after it and the search resumes. nil means not found.
func piParam(body []byte, param string) []byte {
	for i := 0; i < len(body); {
		k := -1
		for j := i; j+len(param) <= len(body); j++ {
			if string(body[j:j+len(param)]) == param {
				k = j
				break
			}
		}
		if k < 0 || k+len(param) >= len(body) {
			return nil
		}
		q := body[k+len(param)]
		i = k + len(param) + 1
		if q != '"' && q != '\'' {
			continue
		}
		for j := i; j < len(body); j++ {
			if body[j] == q {
				return body[i:j]
			}
		}
		return nil
	}
	return nil
}

func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// readName consumes an XML name restricted to the fast-path grammar
// [A-Za-z_][A-Za-z0-9_.-]*, returning nil (without advancing past valid
// prefix) if the next byte cannot start a name.
func (s *scanner) readName() []byte {
	start := s.pos
	if s.pos >= len(s.data) || !nameStart(s.data[s.pos]) {
		return nil
	}
	s.pos++
	for s.pos < len(s.data) && nameByte(s.data[s.pos]) {
		s.pos++
	}
	return s.data[start:s.pos]
}

func nameStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func nameByte(c byte) bool {
	return nameStart(c) || ('0' <= c && c <= '9') || c == '.' || c == '-'
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// endTag consumes </name>, allowing trailing whitespace before '>' as
// encoding/xml does, and requires it to match the innermost open
// element (encoding/xml auto-closes on mismatch — a bail).
func (s *scanner) endTag() bool {
	s.pos += 2 // "</"
	name := s.readName()
	if name == nil {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '>' {
		return false
	}
	s.pos++
	if len(s.stack) == 0 || string(s.stack[len(s.stack)-1]) != string(name) {
		return false
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.end(name)
	return true
}

// startTag consumes <name attr="v"...> or <name .../>, reporting the
// element and each attribute to the decoder as it goes.
func (s *scanner) startTag() bool {
	s.pos++ // '<'
	name := s.readName()
	if name == nil {
		return false
	}
	s.start(name)

	// Attribute loop. Values must be quoted, free of '<' and '\r', with
	// optional whitespace around '=' — exactly the subset on which
	// encoding/xml returns the raw bytes unchanged.
	for {
		s.skipSpace()
		if s.pos >= len(s.data) {
			return false
		}
		switch s.data[s.pos] {
		case '>':
			s.pos++
			s.stack = append(s.stack, name)
			s.open()
			return true
		case '/':
			if s.pos+1 >= len(s.data) || s.data[s.pos+1] != '>' {
				return false
			}
			s.pos += 2
			s.open()
			s.end(name)
			return true
		}
		aname := s.readName()
		if aname == nil {
			return false
		}
		s.skipSpace()
		if s.pos >= len(s.data) || s.data[s.pos] != '=' {
			return false // valueless attribute: encoding/xml invents a value
		}
		s.pos++
		s.skipSpace()
		if s.pos >= len(s.data) {
			return false
		}
		q := s.data[s.pos]
		if q != '"' && q != '\'' {
			return false // unquoted value
		}
		s.pos++
		vstart := s.pos
		for {
			if s.pos >= len(s.data) {
				return false
			}
			c := s.data[s.pos]
			if c == q {
				break
			}
			if c == '<' || c == '\r' || !cleanByte[c] {
				return false
			}
			s.pos++
		}
		val := s.data[vstart:s.pos]
		s.pos++
		s.attr(aname, val)
	}
}

// parseInt64 is an allocation-free strconv.ParseInt(s, 10, 64): it
// accepts exactly the valid base-10 int64 strings (sign, digits, range
// checked) and reports ok=false otherwise.
func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	limit := uint64(1)<<63 - 1
	if neg {
		limit = uint64(1) << 63
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false // overflow: let strconv produce the error
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true // n == 1<<63 wraps to MinInt64, as intended
	}
	return int64(n), true
}

// float64pow10 are the powers of ten exactly representable in float64.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// parseFloat64 is the exact-representation fast path of
// strconv.ParseFloat(s, 64) (Clinger's algorithm): when the decimal
// mantissa fits in 2^53 and the power of ten is exactly representable,
// one multiply or divide is correctly rounded by IEEE semantics and
// matches strconv bit-for-bit. Everything else — long mantissas, big
// exponents, hex/inf/nan/underscore forms, syntax errors — returns
// ok=false for the strconv slow path.
func parseFloat64(b []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var mantissa uint64
	sawDigit := false
	nd := 0    // significant digits consumed
	exp10 := 0 // decimal exponent adjustment from the fraction part
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			break
		}
		sawDigit = true
		if c == '0' && nd == 0 {
			continue // leading zeros are not significant
		}
		nd++
		if nd > 19 {
			return 0, false // mantissa may not be exact; strconv decides
		}
		mantissa = mantissa*10 + uint64(c-'0')
	}
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				break
			}
			sawDigit = true
			if c == '0' && nd == 0 {
				exp10--
				continue
			}
			nd++
			if nd > 19 {
				return 0, false
			}
			mantissa = mantissa*10 + uint64(c-'0')
			exp10--
		}
	}
	if !sawDigit {
		return 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		e := 0
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				break
			}
			if e < 10000 {
				e = e*10 + int(c-'0')
			}
		}
		exp10 += esign * e
	}
	if i != len(b) {
		return 0, false // trailing garbage (or underscores, hex, inf...)
	}
	if mantissa>>53 != 0 {
		return 0, false // not exactly representable
	}
	f := float64(mantissa)
	switch {
	case exp10 == 0:
	case exp10 > 0 && exp10 <= 15+22:
		// 10^k * small-int is exact for k <= 22; one extra exact
		// scaling step is allowed while the product stays < 1e15.
		if exp10 > 22 {
			f *= float64pow10[exp10-22]
			exp10 = 22
			if f > 1e15 || f < -1e15 {
				return 0, false
			}
		}
		f *= float64pow10[exp10]
	case exp10 < 0 && exp10 >= -22:
		f /= float64pow10[-exp10]
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}
