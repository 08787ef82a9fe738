package wcg

import (
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The regular expressions the body-redirect sniffer replaced. They are kept
// here, with the function bodies that used them, as the differential oracle
// the scanner in redirect.go must agree with on every input.
var (
	reMetaRefresh = regexp.MustCompile(`(?i)<meta[^>]*http-equiv=["']?refresh["']?[^>]*url=([^"'> ]+)`)
	reJSLocation  = regexp.MustCompile(`(?i)(?:window\.location|document\.location|location\.href|top\.location)\s*=\s*["']([^"']+)["']`)
	reIFrameSrc   = regexp.MustCompile(`(?i)<iframe[^>]*src=["']?(http[^"'> ]+)`)
	reFromChar    = regexp.MustCompile(`String\.fromCharCode\(([0-9,\s]+)\)`)
	reHexEscape   = regexp.MustCompile(`\\x([0-9a-fA-F]{2})`)
	rePctEscape   = regexp.MustCompile(`%([0-9a-fA-F]{2})`)
)

// oracleDeobfuscate is the regex implementation of Deobfuscate.
func oracleDeobfuscate(body string) string {
	for round := 0; round < 4; round++ {
		decoded := reFromChar.ReplaceAllStringFunc(body, func(m string) string {
			inner := reFromChar.FindStringSubmatch(m)[1]
			var sb strings.Builder
			for _, part := range strings.Split(inner, ",") {
				code, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || code < 0 || code > 0x10ffff {
					return m
				}
				sb.WriteRune(rune(code))
			}
			return sb.String()
		})
		decoded = reHexEscape.ReplaceAllStringFunc(decoded, func(m string) string {
			v, err := strconv.ParseUint(m[2:], 16, 8)
			if err != nil {
				return m
			}
			return string(rune(v))
		})
		decoded = rePctEscape.ReplaceAllStringFunc(decoded, func(m string) string {
			v, err := strconv.ParseUint(m[1:], 16, 8)
			if err != nil {
				return m
			}
			return string(rune(v))
		})
		if decoded == body {
			return decoded
		}
		body = decoded
	}
	return body
}

// oracleSniff is the regex implementation of SniffBodyRedirects.
func oracleSniff(body []byte) []string {
	if len(body) == 0 {
		return nil
	}
	text := oracleDeobfuscate(string(body))
	var out []string
	seen := make(map[string]struct{})
	add := func(matches [][]string) {
		for _, m := range matches {
			u := strings.TrimSpace(m[1])
			if u == "" {
				continue
			}
			if _, ok := seen[u]; ok {
				continue
			}
			seen[u] = struct{}{}
			out = append(out, u)
		}
	}
	add(reMetaRefresh.FindAllStringSubmatch(text, -1))
	add(reJSLocation.FindAllStringSubmatch(text, -1))
	add(reIFrameSrc.FindAllStringSubmatch(text, -1))
	return out
}

// oracleSeeds are inputs on which a hand-written matcher most easily parts
// from the regexes: Unicode case folding, invalid UTF-8, RE2's \s, stacked
// and malformed encodings, several candidate captures in one tag, openers
// inside unterminated tags, and unterminated strings.
var oracleSeeds = []struct{ name, body string }{
	{"meta refresh", `<meta http-equiv="refresh" content="0; url=http://a.b/c">`},
	{"meta refresh upper", `<META HTTP-EQUIV=REFRESH CONTENT="0;URL=http://up.per/x">`},
	{"long s in refresh", "<meta http-equiv='refre\u017fh' content=\"0;url=http://ls/\">"},
	{"long s in src", "<iframe \u017frc=\"http://ls.src/\"></iframe><iframe \u017fRC=HTTP://x>"},
	{"kelvin", "<meta http-equiv=refresh url=\u212a><iframe src=http\u212a>window.location='\u212a'<\u212aeta>"},
	{"invalid utf8", "<meta \xff http-equiv=refresh url=\xfe\xc5 ><iframe \xc5src=http://a\xc5\xbf>\xe2\xc5\xbfrc=http://b"},
	{"invalid lead before long s", "<iframe \xe2\xc5\xbfrc=http://b/\x80\xbf>"},
	{"vertical tab is not space", "window.location\v=\v\"http://v/\"; top.location\t=\n\f\r 'http://s/'"},
	{"stacked percent", `%25%34%31 %255Cx41 window.location='%2568%74tp://st/'`},
	{"escaped backslash hex", `\\x41 \x4 \x4g \X41 \x41\x42 %4 %g1 %%41`},
	{"high byte escapes", `\xC5\xBF %c5%bf \xff%FF`},
	{"fromCharCode empty part", `String.fromCharCode(104,,116) String.fromCharCode(,) String.fromCharCode( ) String.fromCharCode(1,)`},
	{"fromCharCode range", `String.fromCharCode(1114112) String.fromCharCode(1114111) String.fromCharCode(55296,57343) String.fromCharCode(0065 , 66 ,	67)`},
	{"fromCharCode overflow", `String.fromCharCode(99999999999999999999999) String.fromCharCode(1 2) String.fromCharCode(00000000000000000000000104)`},
	{"fromCharCode builds tag", `String.fromCharCode(60,109,101,116,97) http-equiv=refresh url=String.fromCharCode(383)>`},
	{"fromCharCode unterminated", `String.fromCharCode(1,2String.fromCharCode(104,105)`},
	{"several url", `<meta url=http://before http-equiv=refresh url=http://a url=http://b url=><meta http-equiv=refresh url='x' url= >`},
	{"several http-equiv", `<meta http-equiv=x url=http://a http-equiv="refresh"url=http://b http-equiv=refresh>`},
	{"quoted refresh", `<meta http-equiv=""refresh url=http://no><meta http-equiv='refresh'url=http://yes>`},
	{"several src", `<iframe src="http://a/?src=http://b"><iframe src=http://c src=''><iframe src=""http://d src=http>`},
	{"nested meta", `<div <meta http-equiv=refresh url=http://n <meta http-equiv=refresh url=http://m`},
	{"meta inside meta", `<meta <meta http-equiv=refresh url=x> <meta http-equiv=refresh><meta url=y>`},
	{"iframe inside iframe", `<iframe <iframe src=http://i1 <iframe src=http://i2> <iframe>src=http://no`},
	{"unterminated js", `location.href = "http://u/ top.location='a' window.location="b`},
	{"js overlap", `window.location.href="http://w/" document.location.href = 'http://d/' top.location.href='x"`},
	{"js empty and spaces", `window.location=""; top.location = '  '; location.href=' http://t/ '`},
	{"js newline capture", "document.location = \"http://a/\n<b>\" DOCUMENT.LOCATION='http://a/\n<b>'"},
	{"duplicates", `<meta http-equiv=refresh url=http://dup><iframe src=http://dup>window.location='http://dup'`},
	{"whitespace capture", "<meta http-equiv=refresh url=\t\u00a0\t><meta http-equiv=refresh url=\t \t><iframe src=http\u00a0>"},
	{"pct across tag", `%3Cmeta http-equiv=refresh url=http://p%3E %3Ciframe%20src%3Dhttp://q%3E`},
}

// equalToOracle reports a divergence between the scanner and the regex
// oracle on body.
func equalToOracle(t *testing.T, body []byte) {
	t.Helper()
	if got, want := Deobfuscate(string(body)), oracleDeobfuscate(string(body)); got != want {
		t.Fatalf("Deobfuscate(%q) = %q, oracle %q", body, got, want)
	}
	if got, want := SniffBodyRedirects(body), oracleSniff(body); !reflect.DeepEqual(got, want) {
		t.Fatalf("SniffBodyRedirects(%q) = %q, oracle %q", body, got, want)
	}
}

// TestSniffMatchesOracle runs each seed, and every prefix and suffix of it,
// through the scanner and the regex oracle.
func TestSniffMatchesOracle(t *testing.T) {
	for _, seed := range oracleSeeds {
		t.Run(seed.name, func(t *testing.T) {
			body := []byte(seed.body)
			for i := 0; i <= len(body); i++ {
				equalToOracle(t, body[:i])
				equalToOracle(t, body[i:])
			}
		})
	}
}

// FuzzSniffMatchesOracle: on any body the scanner's Deobfuscate and
// SniffBodyRedirects outputs equal the regex oracle's, order included.
func FuzzSniffMatchesOracle(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(equalToOracle)
}

// TestSniffAdversarialLinear: on 256 KB bodies built to make a per-opener
// or per-candidate rescan quadratic, the scanner stays faster than the
// regex oracle, which RE2 keeps linear by construction.
func TestSniffAdversarialLinear(t *testing.T) {
	families := []string{
		`<meta `,
		`<meta http-equiv=refresh`,
		`<meta url=x `,
		`<iframe `,
		`<iframe src= `,
		`location = 'x`,
		`String.fromCharCode(1,`,
		`String.fromCharCode(1,,1)`,
		`%41`,
	}
	const size = 256 << 10
	for _, unit := range families {
		t.Run(unit, func(t *testing.T) {
			var body []byte
			if strings.HasSuffix(unit, "refresh") {
				body = []byte(strings.Repeat(`<meta `, size/len(`<meta `)) + unit)
			} else {
				body = []byte(strings.Repeat(unit, size/len(unit)))
			}
			start := time.Now()
			want := oracleSniff(body)
			oracle := time.Since(start)
			scanner := time.Duration(math.MaxInt64)
			for run := 0; run < 3; run++ {
				start = time.Now()
				got := SniffBodyRedirects(body)
				scanner = min(scanner, time.Since(start))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sniffed %q, oracle %q", got, want)
				}
			}
			t.Logf("scanner %v, oracle %v", scanner, oracle)
			if scanner >= oracle {
				t.Fatalf("scanner took %v on %d bytes, not less than the oracle's %v", scanner, len(body), oracle)
			}
		})
	}
}
