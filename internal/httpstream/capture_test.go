package httpstream

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"dynaminer/internal/pcap"
)

var testKey = pcap.FlowKey{
	SrcIP:   netip.MustParseAddr("10.0.0.5"),
	DstIP:   netip.MustParseAddr("203.0.113.80"),
	SrcPort: 49200,
	DstPort: 80,
}

// chunked frames body as a chunked transfer coding in chunks of size n.
func chunked(body string, n int) string {
	var sb strings.Builder
	for len(body) > 0 {
		k := min(n, len(body))
		fmt.Fprintf(&sb, "%x\r\n%s\r\n", k, body[:k])
		body = body[k:]
	}
	sb.WriteString("0\r\n\r\n")
	return sb.String()
}

// TestExtractPairMatchesReferenceLargeBodies runs the reference oracle over
// the bodies the fuzz corpus is too small to reach: identity bodies just
// under, at and over maxRetainedBody, declared by Content-Length, chunked
// or delimited by close, complete or cut short, pipelined behind each
// other, and encoded bodies that keep the full read.
func TestExtractPairMatchesReferenceLargeBodies(t *testing.T) {
	const mib = 1 << 20
	body := func(n int) string { return strings.Repeat("<p>0123456789abcdef</p>\n", n/24+1)[:n] }
	withCL := func(n int) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s", n, body(n))
	}
	chunkedResp := func(n, chunk int) string {
		return "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(body(n), chunk)
	}
	get := "GET /x HTTP/1.1\r\nHost: big.example\r\n\r\n"
	gz := string(gzipBytes(t, body(3*maxRetainedBody)))
	cases := map[string]struct{ req, resp string }{
		"empty":                {get, withCL(0)},
		"cl max-1":             {get, withCL(maxRetainedBody - 1)},
		"cl max":               {get, withCL(maxRetainedBody)},
		"cl max+1":             {get, withCL(maxRetainedBody + 1)},
		"cl 1MiB":              {get, withCL(mib)},
		"cl truncated short":   {get, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", mib, body(1000))},
		"cl truncated long":    {get, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", mib, body(maxRetainedBody+777))},
		"chunked small":        {get, chunkedResp(100, 7)},
		"chunked max":          {get, chunkedResp(maxRetainedBody, 4096)},
		"chunked 1MiB":         {get, chunkedResp(mib, 10000)},
		"chunked truncated":    {get, chunkedResp(2*maxRetainedBody, 3000)[:maxRetainedBody+5000]},
		"close small":          {"GET /o HTTP/1.0\r\nHost: old\r\n\r\n", "HTTP/1.0 200 OK\r\n\r\n" + body(100)},
		"close max+1":          {"GET /o HTTP/1.0\r\nHost: old\r\n\r\n", "HTTP/1.0 200 OK\r\n\r\n" + body(maxRetainedBody+1)},
		"close 1MiB":           {"GET /o HTTP/1.0\r\nHost: old\r\n\r\n", "HTTP/1.0 200 OK\r\n\r\n" + body(mib)},
		"head with length":     {"HEAD /h HTTP/1.1\r\nHost: a\r\n\r\n" + get, "HTTP/1.1 200 OK\r\nContent-Length: 999999\r\n\r\n" + withCL(maxRetainedBody+1)},
		"pipelined":            {get + get + get + get, withCL(mib) + withCL(3) + chunkedResp(maxRetainedBody+9, 512) + withCL(maxRetainedBody)},
		"gzip large":           {get, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: %d\r\n\r\n%s", len(gz), gz)},
		"gzip mixed case":      {get, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Encoding:  X-GZIP \r\nContent-Length: %d\r\n\r\n%s", len(gz), gz)},
		"corrupt gzip large":   {get, "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n\r\n" + body(2*maxRetainedBody)},
		"unknown coding large": {get, "HTTP/1.1 200 OK\r\nContent-Encoding: br\r\nContent-Length: 70000\r\n\r\n" + body(70000)},
		"bad chunk line large": {get, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZZ\r\n" + body(2*maxRetainedBody)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			checkMatchesReference(t,
				&pcap.Stream{Key: testKey, Data: []byte(tc.req)},
				&pcap.Stream{Key: testKey.Reverse(), Data: []byte(tc.resp)})
		})
	}
}

// TestRetainedBodyCapacityBounded pins that a retained body prefix never
// pins more than maxRetainedBody bytes of backing array, whatever framing
// the 1 MiB identity body arrives in.
func TestRetainedBodyCapacityBounded(t *testing.T) {
	big := strings.Repeat("A", 1<<20)
	cases := map[string]struct{ req, resp string }{
		"content-length": {simpleGet, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(big), big)},
		"chunked":        {simpleGet, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(big, 1000)},
		"close":          {"GET / HTTP/1.0\r\nHost: a\r\n\r\n", "HTTP/1.0 200 OK\r\n\r\n" + big},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			txs := ExtractPair(
				&pcap.Stream{Key: testKey, Data: []byte(tc.req)},
				&pcap.Stream{Key: testKey.Reverse(), Data: []byte(tc.resp)})
			if len(txs) != 1 {
				t.Fatalf("transactions = %d, want 1", len(txs))
			}
			tx := txs[0]
			if tx.BodySize != len(big) || len(tx.Body) != maxRetainedBody {
				t.Fatalf("size %d, retained %d; want %d, %d", tx.BodySize, len(tx.Body), len(big), maxRetainedBody)
			}
			if cap(tx.Body) > maxRetainedBody {
				t.Fatalf("cap(Body) = %d, want <= %d", cap(tx.Body), maxRetainedBody)
			}
		})
	}
}

// conversations renders n independent one-transaction conversations as
// reassembled streams, each with its own client port.
func conversations(n int) []*pcap.Stream {
	streams := make([]*pcap.Stream, 0, 2*n)
	for i := 0; i < n; i++ {
		key := testKey
		key.SrcPort = uint16(1024 + i)
		streams = append(streams,
			&pcap.Stream{Key: key, Data: []byte(simpleGet)},
			&pcap.Stream{Key: key.Reverse(), Data: []byte(simpleResp)})
	}
	return streams
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExtractAllGrowsLinearly pins amortized growth of the transaction
// slice: ExtractAll appends one conversation at a time, and growing the
// slice by exactly that conversation's transactions recopies everything
// extracted so far on every call, so twice the conversations cost four
// times the bytes. Amortized growth keeps it near twice.
func TestExtractAllGrowsLinearly(t *testing.T) {
	const n = 256
	small, large := conversations(n), conversations(2*n)
	ExtractAll(small) // warm the parser pool
	var got []Transaction
	bytesN := allocatedBytes(func() { got = ExtractAll(small) })
	if len(got) != n {
		t.Fatalf("extracted %d transactions, want %d", len(got), n)
	}
	bytes2N := allocatedBytes(func() { got = ExtractAll(large) })
	if len(got) != 2*n {
		t.Fatalf("extracted %d transactions, want %d", len(got), 2*n)
	}
	if ratio := float64(bytes2N) / float64(bytesN); ratio > 2.5 {
		t.Fatalf("%d conversations allocate %d B, %d allocate %d B: ratio %.2f, want <= 2.5 (linear)",
			n, bytesN, 2*n, bytes2N, ratio)
	}
}

// BenchmarkExtractAllCapture measures bulk extraction over a capture-sized
// set of conversations: mostly small pages, with every tenth response a
// 200 KB Content-Length body and every tenth (offset) a chunked one, so
// both the transaction-slice growth and the bounded body read show in
// B/op and allocs/op.
func BenchmarkExtractAllCapture(b *testing.B) {
	const n = 2000
	big := strings.Repeat("B", 200<<10)
	streams := make([]*pcap.Stream, 0, 2*n)
	size := 0
	for i := 0; i < n; i++ {
		key := testKey
		key.SrcPort = uint16(1024 + i)
		resp := simpleResp
		switch i % 10 {
		case 3:
			resp = fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(big), big)
		case 7:
			resp = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(big[:20000], 4000)
		}
		streams = append(streams,
			&pcap.Stream{Key: key, Data: []byte(simpleGet)},
			&pcap.Stream{Key: key.Reverse(), Data: []byte(resp)})
		size += len(simpleGet) + len(resp)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if txs := ExtractAll(streams); len(txs) != n {
			b.Fatalf("extracted %d transactions, want %d", len(txs), n)
		}
	}
}
