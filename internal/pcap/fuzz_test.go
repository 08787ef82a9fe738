package pcap

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

// FuzzDecodeFrame shakes the layer decoder with arbitrary bytes: it must
// never panic, and any frame it accepts must re-encode losslessly enough
// to decode again.
func FuzzDecodeFrame(f *testing.F) {
	valid, _ := EncodeFrame(&Frame{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1234, DstPort: 80, Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
	})
	f.Add(valid)
	v6, _ := EncodeFrame(&Frame{
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::2"),
		SrcPort: 1234, DstPort: 80, Payload: []byte("x"),
	})
	f.Add(v6)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 60))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if fr.SrcIP.Is4() != fr.DstIP.Is4() {
			t.Fatalf("mixed address families decoded: %v -> %v", fr.SrcIP, fr.DstIP)
		}
	})
}

// FuzzReadAllAuto drives both capture-format readers with arbitrary bytes.
func FuzzReadAllAuto(f *testing.F) {
	var classic bytes.Buffer
	w := NewWriter(&classic)
	_ = w.WritePacket(Packet{Timestamp: time.Unix(100, 0), Data: []byte{1, 2, 3, 4}})
	f.Add(classic.Bytes())

	var ng bytes.Buffer
	nw := NewNGWriter(&ng)
	_ = nw.WritePacket(Packet{Timestamp: time.Unix(100, 0), Data: []byte{1, 2, 3, 4}})
	f.Add(ng.Bytes())
	f.Add([]byte("not a capture at all"))
	f.Add(hugeRecordCapture())
	f.Add(hugeBlockCapture())

	// Every accepted packet owns its bytes (cap == len, so an append never
	// reaches a neighbour in the shared chunk), and the packets together
	// hold no more bytes than the input did.
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := ReadAllAuto(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for _, p := range pkts {
			if len(p.Data) > defaultSnapLen {
				t.Fatalf("packet exceeds snaplen: %d", len(p.Data))
			}
			if cap(p.Data) != len(p.Data) {
				t.Fatalf("packet data cap %d != len %d", cap(p.Data), len(p.Data))
			}
			total += len(p.Data)
		}
		if total > len(data) {
			t.Fatalf("packets hold %d bytes from a %d-byte input", total, len(data))
		}
	})
}
