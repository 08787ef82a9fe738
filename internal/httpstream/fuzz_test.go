package httpstream

import (
	"testing"

	"dynaminer/internal/pcap"
)

// Seed corpus: the handcrafted edge cases below plus realistic pipelined
// traffic generated from the synth corpus, checked in under
// testdata/fuzz/<FuzzName>/ (regenerate with TestWriteFuzzSeedCorpus in
// internal/synth).

// malformedSeeds are handcrafted edge cases: truncation points, bad
// framing, binary garbage, and header pathologies.
var malformedSeeds = []string{
	"",
	"\x00\x01\x02\x03",
	"GET",
	"GET / HTTP/1.1\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST /u HTTP/1.1\r\nHost: a\r\nContent-Length: 99\r\n\r\nshort",
	"POST /u HTTP/1.1\r\nHost: a\r\nContent-Length: -1\r\n\r\n",
	"HTTP/1.1 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZZ\r\nbody",
	"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 4\r\n\r\n\x1f\x8b\x08\x00",
	"HTTP/1.1 304 Not Modified\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\nGET /2 HTTP/1.1\r\n\r\n",
}

func FuzzParseRequests(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parseRequests(data)
	})
}

func FuzzParseResponses(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	// A fixed pipelined request list so positional matching (HEAD and
	// status-only semantics) is exercised against arbitrary response bytes.
	reqs := parseRequests([]byte(
		"HEAD /h HTTP/1.1\r\nHost: a\r\n\r\n" +
			"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n" +
			"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parseResponses(data, reqs)
	})
}

// FuzzExtractPair holds ExtractPair to the io.ReadAll reference
// (refExtractPair): every Transaction field must match. Each malformed
// seed is tried as the response stream after a single GET and after a
// pipelined HEAD/GET/GET (so HEAD and status-only framing meet every
// seed), and as the request stream.
func FuzzExtractPair(f *testing.F) {
	pipelined := []byte("HEAD /h HTTP/1.1\r\nHost: a\r\n\r\n" +
		"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n" +
		"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n")
	for _, s := range malformedSeeds {
		f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"), []byte(s))
		f.Add(pipelined, []byte(s))
		f.Add([]byte(s), []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
	}
	f.Fuzz(func(t *testing.T, creq, sresp []byte) {
		checkMatchesReference(t, &pcap.Stream{Key: testKey, Data: creq}, &pcap.Stream{Key: testKey.Reverse(), Data: sresp})
	})
}
