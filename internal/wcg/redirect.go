package wcg

import (
	"bytes"
	"slices"
	"sort"
	"time"
	"unicode/utf8"
)

// Redirect evidence in document bodies (Section III-D: redirection evidence
// is often embedded in HTML or JavaScript, sometimes obfuscated) is found by
// a byte scanner that returns exactly what these patterns returned when they
// were regular expressions (they live on in redirect_oracle_test.go as the
// differential oracle):
//
//	meta refresh  (?i)<meta[^>]*http-equiv=["']?refresh["']?[^>]*url=([^"'> ]+)
//	JS location   (?i)(?:window\.location|document\.location|location\.href|top\.location)\s*=\s*["']([^"']+)["']
//	iframe src    (?i)<iframe[^>]*src=["']?(http[^"'> ]+)
//	decode passes String\.fromCharCode\(([0-9,\s]+)\)   \\x([0-9a-fA-F]{2})   %([0-9a-fA-F]{2})
//
// DESIGN.md "Body-redirect sniffer" states the matching rules the scanner
// keeps and why each pass is linear in the body length.

// Deobfuscate applies the lightweight decoding passes miscreants commonly
// layer over redirect code: String.fromCharCode(...) expansion, \xNN
// escapes, and percent-encoding. The passes run until a fixed point (at
// most four rounds) so stacked encodings unwrap.
func Deobfuscate(body string) string {
	return string(deobfuscate([]byte(body)))
}

// SniffBodyRedirects extracts redirect target URLs from an HTML or
// JavaScript body after deobfuscation: meta refreshes, JavaScript location
// assignments, and iframe sources, in that order, trimmed and without
// duplicates. The body is only read; the returned strings are copies.
func SniffBodyRedirects(body []byte) []string {
	if len(body) == 0 {
		return nil
	}
	text := deobfuscate(body)
	var t targets
	sniffTags(&t, text, "<meta", metaRefreshValue)
	sniffJSLocation(&t, text)
	sniffTags(&t, text, "<iframe", iframeSrcValue)
	return t.out
}

// deobfuscate runs the fromCharCode, \xNN and %NN passes in that order, up
// to four rounds, stopping after a round that changes nothing. It returns
// text itself when nothing decodes. Otherwise the passes alternate between
// two buffers, so a pass never writes into its own input, and never into
// the caller's. A buffer is allocated when a pass first replaces
// something, sized to the pass's input: decoding only shrinks text, so it
// never grows after that.
func deobfuscate(text []byte) []byte {
	var buf [2][]byte
	cur := -1 // index of the buffer holding text; -1 while it is the input
	for round := 0; round < 4; round++ {
		changed := false
		for _, pass := range decodePasses {
			dst := 0
			if cur == 0 {
				dst = 1
			}
			if out, ok := pass(buf[dst][:0], text); ok {
				buf[dst], text, cur, changed = out, out, dst, true
			}
		}
		if !changed {
			break
		}
	}
	return text
}

// decodePasses are the decode passes of one round, in order.
var decodePasses = [...]func(dst, src []byte) ([]byte, bool){
	decodeFromCharCode,
	func(dst, src []byte) ([]byte, bool) { return decodeByteEscapes(dst, src, `\x`) },
	func(dst, src []byte) ([]byte, bool) { return decodeByteEscapes(dst, src, "%") },
}

var fromCharCodeCall = []byte("String.fromCharCode(")

// decodeFromCharCode expands each String.fromCharCode(...) call whose
// argument list is decimal code points separated by commas, each optionally
// padded with [\t\n\f\r ]. A call with an empty, non-numeric or
// out-of-range (above 0x10FFFF) argument stays as written; a surrogate
// becomes U+FFFD. The decoded text is appended to dst, which ends up no
// longer than src; ok is false when no call expanded, and out is then to be
// ignored.
func decodeFromCharCode(dst, src []byte) (out []byte, ok bool) {
	copied := 0 // src[:copied] is already in dst
	for i := 0; ; {
		j := bytes.Index(src[i:], fromCharCodeCall)
		if j < 0 {
			break
		}
		call := i + j
		args := call + len(fromCharCodeCall)
		end := args
		for end < len(src) && (isDigit(src[end]) || src[end] == ',' || isSpace(src[end])) {
			end++
		}
		if end == args || end == len(src) || src[end] != ')' {
			// Not a call. No later call can start inside the argument run.
			i = end
			continue
		}
		i = end + 1
		dst = slices.Grow(dst, len(src)-len(dst)) // decoding never outgrows src
		dst = append(dst, src[copied:call]...)
		copied = call
		n := len(dst)
		var valid bool
		if dst, valid = appendCharCodes(dst, src[args:end]); !valid {
			dst = dst[:n] // the call stays as written, copied with the next run
			continue
		}
		copied, ok = i, true
	}
	if !ok {
		return dst, false
	}
	return append(dst, src[copied:]...), true
}

// appendCharCodes appends the UTF-8 encoding of each comma-separated code
// point in args, reporting false if any argument is empty, not a decimal
// number, or above 0x10FFFF.
func appendCharCodes(dst, args []byte) ([]byte, bool) {
	for {
		part := args
		comma := bytes.IndexByte(args, ',')
		if comma >= 0 {
			part = args[:comma]
		}
		part = bytes.TrimSpace(part)
		if len(part) == 0 {
			return dst, false
		}
		code := 0
		for _, c := range part {
			if !isDigit(c) {
				return dst, false
			}
			if code = code*10 + int(c-'0'); code > utf8.MaxRune {
				return dst, false
			}
		}
		dst = utf8.AppendRune(dst, rune(code))
		if comma < 0 {
			return dst, true
		}
		args = args[comma+1:]
	}
}

// decodeByteEscapes replaces each escape of prefix followed by two hex
// digits (\xNN or %NN) with the UTF-8 encoding of code point NN, so an NN
// of 0x80 or above becomes two bytes. Like decodeFromCharCode it appends to
// dst and reports whether anything was replaced.
func decodeByteEscapes(dst, src []byte, prefix string) (out []byte, ok bool) {
	copied := 0
	for i := 0; ; {
		j := bytes.IndexByte(src[i:], prefix[0])
		if j < 0 {
			break
		}
		i += j
		hex := i + len(prefix)
		if hex+2 > len(src) || string(src[i:hex]) != prefix || !isHex(src[hex]) || !isHex(src[hex+1]) {
			i++
			continue
		}
		dst = slices.Grow(dst, len(src)-len(dst))
		dst = append(dst, src[copied:i]...)
		dst = utf8.AppendRune(dst, rune(unhex(src[hex])<<4|unhex(src[hex+1])))
		i = hex + 2
		copied, ok = i, true
	}
	if !ok {
		return dst, false
	}
	return append(dst, src[copied:]...), true
}

// targets collects sniffed redirect targets in first-seen order, trimmed,
// non-empty and without duplicates.
type targets struct {
	out  []string
	seen map[string]struct{}
}

func (t *targets) add(capture []byte) {
	u := bytes.TrimSpace(capture)
	if len(u) == 0 {
		return
	}
	if _, dup := t.seen[string(u)]; dup {
		return
	}
	if t.seen == nil {
		t.seen = make(map[string]struct{})
	}
	s := string(u)
	t.seen[s] = struct{}{}
	t.out = append(t.out, s)
}

// A tag region is what the oracle's [^>]* can span after a tag opener: up
// to the first '>' or the end of the text. Every opener inside one region
// shares its end, so a pattern matches from the first opener of a region
// exactly when it matches from any later one, and at most once: the first
// opener's match already takes the last capture the region offers. Each
// tag scan therefore handles a region once and resumes at its end, which
// keeps it linear however many openers a region holds.

// nextTagRegion returns the region [start, end) following the first
// case-folded opener at or after pos, or start -1 when none remains.
func nextTagRegion(text []byte, pos int, opener string) (start, end int) {
	for {
		i := bytes.IndexByte(text[pos:], '<')
		if i < 0 {
			return -1, -1
		}
		pos += i
		if start = foldAt(text, pos, opener); start >= 0 {
			if gt := bytes.IndexByte(text[start:], '>'); gt >= 0 {
				return start, start + gt
			}
			return start, len(text)
		}
		pos++
	}
}

// sniffTags adds, for each region of opener, the value whose start
// valueAt picks (-1 for none), up to the end of its [^"'> ]+ run.
func sniffTags(t *targets, text []byte, opener string, valueAt func(region []byte) int) {
	for pos := 0; ; {
		start, end := nextTagRegion(text, pos, opener)
		if start < 0 {
			return
		}
		pos = end
		region := text[start:end]
		if v := valueAt(region); v >= 0 {
			t.add(region[v:valueEnd(region, v)])
		}
	}
}

// metaRefreshValue picks, in a <meta region, the last url= with a
// non-empty value that follows the earliest http-equiv=["']?refresh.
func metaRefreshValue(region []byte) int {
	from := -1
	for i := 0; from < 0; {
		at, eq := indexFold(region, i, "http-equiv=")
		if at < 0 {
			return -1
		}
		from = foldAt(region, skipQuote(region, eq), "refresh")
		i = at + 1
	}
	value := -1
	for i := from; ; {
		at, eq := indexFold(region, i, "url=")
		if at < 0 {
			return value
		}
		if eq < len(region) && !isValueStop(region[eq]) {
			value = eq
		}
		i = at + 1
	}
}

// iframeSrcValue picks, in an <iframe region, the last src=["']? followed
// by http and at least one more value byte.
func iframeSrcValue(region []byte) int {
	value := -1
	for i := 0; ; {
		at, eq := indexFold(region, i, "src=")
		if at < 0 {
			return value
		}
		v := skipQuote(region, eq)
		if h := foldAt(region, v, "http"); h >= 0 && h < len(region) && !isValueStop(region[h]) {
			value = v
		}
		i = at + 1
	}
}

// jsLocationTargets are the assignment targets of the JS location pattern.
// Each holds one '.', at offset dot; sniffJSLocation anchors on the dots of
// the text and tries the targets in this order, which is ascending start
// position for a given dot. At most one target can match around any dot,
// and because each holds exactly one '.', matches around later dots start
// later, so the scan meets candidates in the oracle's leftmost order.
var jsLocationTargets = [...]struct {
	name string
	dot  int
}{
	{"document.location", 8},
	{"location.href", 8},
	{"window.location", 6},
	{"top.location", 3},
}

// sniffJSLocation adds the capture of each JS location assignment: a
// target, then \s*=\s*, then a non-empty string between quotes of either
// kind. Matches do not overlap: the search resumes after the closing quote.
func sniffJSLocation(t *targets, text []byte) {
	pos := 0 // matches start at or after pos
	for dot := 0; ; dot++ {
		i := bytes.IndexByte(text[dot:], '.')
		if i < 0 {
			return
		}
		dot += i
		for _, target := range jsLocationTargets {
			start := dot - target.dot
			if start < pos {
				continue
			}
			end := foldAt(text, start, target.name)
			if end < 0 {
				continue
			}
			open := skipSpace(text, end)
			if open >= len(text) || text[open] != '=' {
				break
			}
			open = skipSpace(text, open+1)
			if open >= len(text) || !isQuote(text[open]) {
				break
			}
			closing := open + 1
			for closing < len(text) && !isQuote(text[closing]) {
				closing++
			}
			if closing == open+1 || closing == len(text) {
				break
			}
			t.add(text[open+1 : closing])
			pos = closing + 1
			dot = closing // the loop's dot++ resumes the search at pos
			break
		}
	}
}

// foldAt returns the end of lit matched at text[i:], or -1. lit is
// lower-case ASCII and matches as under the oracle's (?i), which folds by
// Unicode simple case folding: a letter matches either ASCII case, and 's'
// also matches U+017F (ſ). No literal here holds a 'k', the only other
// ASCII letter with a non-ASCII fold partner (U+212A).
func foldAt(text []byte, i int, lit string) int {
	for j := 0; j < len(lit); j++ {
		if i >= len(text) {
			return -1
		}
		switch c, b := lit[j], text[i]; {
		case b == c || ('a' <= c && c <= 'z' && b == c-('a'-'A')):
			i++
		case c == 's' && b == 0xc5 && i+1 < len(text) && text[i+1] == 0xbf:
			i += 2
		default:
			return -1
		}
	}
	return i
}

// indexFold returns the start and end of the first foldAt match of lit in
// text at or after from, or -1, -1.
func indexFold(text []byte, from int, lit string) (start, end int) {
	for i := from; i < len(text); i++ {
		if end = foldAt(text, i, lit); end >= 0 {
			return i, end
		}
	}
	return -1, -1
}

// valueEnd returns the end of the [^"'> ]+ run starting at i.
func valueEnd(text []byte, i int) int {
	for i < len(text) && !isValueStop(text[i]) {
		i++
	}
	return i
}

// skipQuote returns i+1 when text[i] is a quote (the oracle's greedy
// ["']?), else i.
func skipQuote(text []byte, i int) int {
	if i < len(text) && isQuote(text[i]) {
		return i + 1
	}
	return i
}

// skipSpace returns the index of the first byte at or after i outside \s.
func skipSpace(text []byte, i int) int {
	for i < len(text) && isSpace(text[i]) {
		i++
	}
	return i
}

// isSpace reports whether b is in RE2's \s, [\t\n\f\r ] (no \v).
func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\f' || b == '\r'
}

func isQuote(b byte) bool     { return b == '"' || b == '\'' }
func isValueStop(b byte) bool { return isQuote(b) || b == '>' || b == ' ' }
func isDigit(b byte) bool     { return '0' <= b && b <= '9' }
func isHex(b byte) bool       { return isDigit(b) || 'a' <= b|0x20 && b|0x20 <= 'f' }
func unhex(b byte) int {
	if isDigit(b) {
		return int(b - '0')
	}
	return int(b|0x20-'a') + 10
}

// Chain is one reconstructed redirection chain: the ordered node ids and
// the timestamps of the hops between them.
type Chain struct {
	Nodes []int
	Times []time.Time // one per hop: len(Nodes)-1 entries
}

// Hops is the number of redirect hops in the chain.
func (c Chain) Hops() int { return len(c.Nodes) - 1 }

// RedirectChains reconstructs redirection chains from the redirect edges:
// edges are sorted by time and greedily linked head-to-tail (a hop B->C
// continues a chain ending at B if it is not earlier than the chain's last
// hop). Each redirect edge belongs to exactly one chain.
func (w *WCG) RedirectChains() []Chain {
	var redirs []*Edge
	for _, e := range w.Edges {
		if e.Kind == EdgeRedirect {
			redirs = append(redirs, e)
		}
	}
	sort.SliceStable(redirs, func(i, j int) bool { return redirs[i].Time.Before(redirs[j].Time) })

	var chains []Chain
	// chainAt maps a node id to the index of the open chain ending there.
	chainAt := make(map[int]int)
	for _, e := range redirs {
		if ci, ok := chainAt[e.From]; ok {
			c := &chains[ci]
			c.Nodes = append(c.Nodes, e.To)
			c.Times = append(c.Times, e.Time)
			delete(chainAt, e.From)
			chainAt[e.To] = ci
			continue
		}
		chains = append(chains, Chain{Nodes: []int{e.From, e.To}, Times: []time.Time{e.Time}})
		chainAt[e.To] = len(chains) - 1
	}
	return chains
}

// RedirectStats aggregates redirect-chain measures for graph-level
// annotations and features.
type RedirectStats struct {
	TotalRedirects   int           // all redirect edges (the paper's modified sum-of-all rule)
	MaxChainLen      int           // unique hops in the longest chain
	CrossDomainCount int           // redirects crossing registered domains
	TLDDiversity     int           // unique TLDs among redirect participants
	AvgRedirectDelay time.Duration // mean delay between successive hops within chains
}

// RedirectStats computes the redirect aggregates of the WCG.
func (w *WCG) RedirectStats() RedirectStats {
	var st RedirectStats
	tlds := make(map[string]struct{})
	for _, e := range w.Edges {
		if e.Kind != EdgeRedirect {
			continue
		}
		st.TotalRedirects++
		if e.CrossDomain {
			st.CrossDomainCount++
		}
		tlds[topLevelDomain(w.Nodes[e.From].Host)] = struct{}{}
		tlds[topLevelDomain(w.Nodes[e.To].Host)] = struct{}{}
	}
	st.TLDDiversity = len(tlds)

	var delaySum time.Duration
	delays := 0
	for _, c := range w.RedirectChains() {
		if c.Hops() > st.MaxChainLen {
			st.MaxChainLen = c.Hops()
		}
		for i := 1; i < len(c.Times); i++ {
			delaySum += c.Times[i].Sub(c.Times[i-1])
			delays++
		}
	}
	if delays > 0 {
		st.AvgRedirectDelay = delaySum / time.Duration(delays)
	}
	return st
}
