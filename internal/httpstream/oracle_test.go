package httpstream

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"testing"

	"dynaminer/internal/pcap"
)

// refResponses is the reference the response parser is held against: the
// response loop as it was before bodies were read through readRetained,
// draining every body with io.ReadAll before truncating it to
// maxRetainedBody. It runs on a fresh parser.
func refResponses(data []byte, reqs []reqMsg) []respMsg {
	p := newStreamParser()
	p.start(data)
	out := p.resps[:0]
	for i := 0; ; i++ {
		// Same dead-allocation avoidance as the request loop: ReadResponse
		// builds its Response before touching the input.
		if _, err := p.br.Peek(1); err != nil {
			p.resps = out
			return out
		}
		offset := p.cr.n - p.br.Buffered()
		var req *http.Request
		if i < len(reqs) {
			req = reqs[i].req
		}
		resp, err := http.ReadResponse(p.br, req)
		if err != nil {
			p.resps = out
			return out
		}
		bodyStart := p.cr.n - p.br.Buffered()
		body, bodyErr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		size := len(body)
		aliased := false
		if bodyErr != nil && size == 0 && bodyStart < len(data) {
			// The framing was unusable from the first body byte (e.g. a
			// garbage chunk-size line): degrade to the raw stream remainder
			// so the transaction keeps its payload evidence instead of
			// reporting an empty body.
			body = data[bodyStart:]
			size = len(body)
			aliased = true
		}
		body = decodeContent(body, resp.Header.Get("Content-Encoding"))
		if len(body) > maxRetainedBody {
			body = body[:maxRetainedBody]
		}
		if aliased {
			// The degraded body still points into the stream buffer, which
			// may belong to a pooled assembler arena; detach the retained
			// (truncation-bounded) prefix so the Transaction outlives it.
			body = detachBody(body)
		}
		out = append(out, respMsg{resp: resp, offset: offset, body: body, bodySize: size})
		if bodyErr != nil {
			// Truncated body (capture cut mid-transfer): keep the prefix, stop.
			p.resps = out
			return out
		}
	}
}

// refExtractPair assembles transactions the way ExtractPairInto does, from
// a fresh request parse and the refResponses reference.
func refExtractPair(c2s, s2c *pcap.Stream) []Transaction {
	reqs := parseRequests(c2s.Data)
	var resps []respMsg
	if s2c != nil {
		resps = refResponses(s2c.Data, reqs)
	}
	var out []Transaction
	for i, rm := range reqs {
		tx := Transaction{
			ClientIP:    c2s.Key.SrcIP,
			ServerIP:    c2s.Key.DstIP,
			ClientPort:  c2s.Key.SrcPort,
			ServerPort:  c2s.Key.DstPort,
			Method:      rm.req.Method,
			URI:         rm.req.URL.RequestURI(),
			Host:        rm.req.Host,
			ReqHdr:      rm.req.Header,
			ReqTime:     c2s.TimeAt(rm.offset),
			ReqBodySize: rm.bodySize,
		}
		if i < len(resps) {
			pm := resps[i]
			tx.StatusCode = pm.resp.StatusCode
			tx.RespHdr = pm.resp.Header
			tx.RespTime = s2c.TimeAt(pm.offset)
			tx.ContentType = pm.resp.Header.Get("Content-Type")
			tx.BodySize = pm.bodySize
			tx.Body = pm.body
		} else {
			tx.RespHdr = http.Header{}
		}
		out = append(out, tx)
	}
	return out
}

// checkMatchesReference extracts the conversation with ExtractPair and
// with the reference and requires every Transaction field to agree: Body
// by content (bytes.Equal), everything else by reflect.DeepEqual.
func checkMatchesReference(t *testing.T, c2s, s2c *pcap.Stream) {
	t.Helper()
	got, want := ExtractPair(c2s, s2c), refExtractPair(c2s, s2c)
	if len(got) != len(want) {
		t.Fatalf("%d transactions, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !bytes.Equal(g.Body, w.Body) {
			t.Fatalf("tx %d: body %d bytes %.40q, reference %d bytes %.40q", i, len(g.Body), g.Body, len(w.Body), w.Body)
		}
		g.Body, w.Body = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("tx %d differs from the reference:\n got %+v\nwant %+v", i, g, w)
		}
	}
}
