// Package pcap implements the subset of the packet-capture toolchain that
// DynaMiner's offline analytics stage needs, from scratch on the standard
// library: the classic libpcap file format (read and write), Ethernet/IPv4/
// TCP encoding and decoding, TCP flow reassembly, and a conversation
// builder that turns byte-level client/server exchanges into valid capture
// files. The synthetic trace generator emits real pcap files through this
// package and the analytics stage re-parses them, so the byte-level path
// the paper's deep-packet-inspection pipeline exercises is preserved.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Classic pcap magic numbers (microsecond resolution).
const (
	magicLE = 0xa1b2c3d4 // written natively little-endian by this package
	magicBE = 0xd4c3b2a1

	// LinkTypeEthernet is the only link type this package handles.
	LinkTypeEthernet = 1

	globalHeaderLen = 24
	recordHeaderLen = 16
	defaultSnapLen  = 262144

	// maxRecordLen bounds a classic record's captured length: libpcap's
	// largest snaplen. A file's own snaplen can claim up to 4 GiB, so it
	// cannot be the only bound on what a record header makes us allocate.
	maxRecordLen = defaultSnapLen
	// maxBlockLen bounds a pcapng block's total length.
	maxBlockLen = 16 << 20
	// chunkLen is the size of the shared buffers packet bytes are carved
	// from.
	chunkLen = 1 << 20
)

var (
	// ErrBadMagic reports a file that does not start with a classic pcap magic.
	ErrBadMagic = errors.New("pcap: bad magic number")
	// ErrRecordTooLarge reports a classic record header whose captured
	// length exceeds maxRecordLen; it is returned before any allocation.
	ErrRecordTooLarge = errors.New("pcap: record exceeds 262144 bytes")
	// ErrBlockTooLarge reports a pcapng block header whose total length
	// exceeds maxBlockLen; it is returned before any allocation.
	ErrBlockTooLarge = errors.New("pcapng: block exceeds 16 MiB")
)

// chunks carves packet buffers from shared chunkLen-byte buffers (one
// record's size when a record is larger), so reading a capture allocates
// once per chunk instead of once per packet. A chunk is never reused:
// every carved slice stays valid for as long as its Packet does. Each
// slice's capacity equals its length, so an append to one packet's Data
// reallocates instead of overwriting its neighbour.
type chunks struct{ free []byte }

func (c *chunks) carve(n int) []byte {
	if n > len(c.free) {
		c.free = make([]byte, max(n, chunkLen))
	}
	b := c.free[:n:n]
	c.free = c.free[n:]
	return b
}

// Packet is one captured frame with its capture timestamp.
type Packet struct {
	Timestamp time.Time
	Data      []byte // raw frame bytes starting at the link layer
}

// Writer emits a classic little-endian microsecond pcap file.
type Writer struct {
	w           io.Writer
	wroteHeader bool
	snapLen     uint32
}

// NewWriter returns a Writer targeting w. The global header is written
// lazily on the first packet (or by Flush on an empty capture).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: defaultSnapLen}
}

func (pw *Writer) writeHeader() error {
	if pw.wroteHeader {
		return nil
	}
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], pw.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write global header: %w", err)
	}
	pw.wroteHeader = true
	return nil
}

// WritePacket appends one frame to the capture.
func (pw *Writer) WritePacket(p Packet) error {
	if err := pw.writeHeader(); err != nil {
		return err
	}
	if uint32(len(p.Data)) > pw.snapLen {
		return fmt.Errorf("pcap: packet length %d exceeds snaplen %d", len(p.Data), pw.snapLen)
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.Timestamp.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Timestamp.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.Data)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := pw.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: write record body: %w", err)
	}
	return nil
}

// Flush makes sure the global header exists even for empty captures.
func (pw *Writer) Flush() error { return pw.writeHeader() }

// Reader parses a classic pcap file in either byte order.
type Reader struct {
	r        io.Reader
	order    binary.ByteOrder
	snapLen  uint32
	linkType uint32
	chunks   chunks
}

// NewReader validates the global header of r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read global header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicLE:
		order = binary.LittleEndian
	case magicBE:
		order = binary.BigEndian
	default:
		return nil, ErrBadMagic
	}
	pr := &Reader{
		r:        r,
		order:    order,
		snapLen:  order.Uint32(hdr[16:]),
		linkType: order.Uint32(hdr[20:]),
	}
	if pr.linkType != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", pr.linkType)
	}
	return pr, nil
}

// Next returns the next packet, or io.EOF at the end of the capture.
func (pr *Reader) Next() (Packet, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	sec := pr.order.Uint32(hdr[0:])
	usec := pr.order.Uint32(hdr[4:])
	capLen := pr.order.Uint32(hdr[8:])
	if capLen > maxRecordLen {
		return Packet{}, fmt.Errorf("%w: record length %d", ErrRecordTooLarge, capLen)
	}
	if capLen > pr.snapLen {
		return Packet{}, fmt.Errorf("pcap: record length %d exceeds snaplen %d", capLen, pr.snapLen)
	}
	data := pr.chunks.carve(int(capLen))
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: read record body: %w", err)
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:      data,
	}, nil
}

// ReadAll drains the capture into memory.
func ReadAll(r io.Reader) ([]Packet, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var pkts []Packet
	for {
		p, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return pkts, nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}
