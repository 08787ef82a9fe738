package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A // section header
	blockIDB = 0x00000001 // interface description
	blockSPB = 0x00000003 // simple packet
	blockEPB = 0x00000006 // enhanced packet

	byteOrderMagic = 0x1A2B3C4D
	optTsResol     = 9
	optEndOfOpts   = 0
)

// NGReader parses a pcapng capture: section header, interface description,
// and enhanced/simple packet blocks. Unknown block types are skipped, as
// the format prescribes. Multiple sections and interfaces are supported;
// only Ethernet interfaces yield packets.
type NGReader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	// ifaces[i] describes interface i of the current section.
	ifaces []ngInterface
	chunks chunks
}

type ngInterface struct {
	linkType uint16
	tsUnit   time.Duration // duration of one timestamp tick
}

// NewNGReader validates the leading section header of r.
func NewNGReader(r io.Reader) (*NGReader, error) {
	ng := &NGReader{r: bufio.NewReader(r)}
	if err := ng.readSectionHeader(); err != nil {
		return nil, err
	}
	return ng, nil
}

func (ng *NGReader) readSectionHeader() error {
	var head [12]byte
	if _, err := io.ReadFull(ng.r, head[:]); err != nil {
		return fmt.Errorf("pcapng: read section header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != blockSHB {
		return ErrBadMagic
	}
	switch binary.LittleEndian.Uint32(head[8:]) {
	case byteOrderMagic:
		ng.order = binary.LittleEndian
	case 0x4D3C2B1A:
		ng.order = binary.BigEndian
	default:
		return fmt.Errorf("pcapng: bad byte-order magic")
	}
	totalLen := ng.order.Uint32(head[4:])
	if totalLen < 28 || totalLen%4 != 0 {
		return fmt.Errorf("pcapng: bad section header length %d", totalLen)
	}
	// Consume the remainder of the block (version, section length, options,
	// trailing length).
	if _, err := io.CopyN(io.Discard, ng.r, int64(totalLen-12)); err != nil {
		return fmt.Errorf("pcapng: section header body: %w", err)
	}
	ng.ifaces = ng.ifaces[:0]
	return nil
}

// parseIDB registers an interface from an IDB block body (without the
// leading type/length and trailing length).
func (ng *NGReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcapng: short interface description")
	}
	iface := ngInterface{
		linkType: ng.order.Uint16(body[0:]),
		tsUnit:   time.Microsecond,
	}
	// Walk options for if_tsresol.
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.order.Uint16(opts[0:])
		length := int(ng.order.Uint16(opts[2:]))
		opts = opts[4:]
		if code == optEndOfOpts {
			break
		}
		if length > len(opts) {
			return fmt.Errorf("pcapng: option overruns block")
		}
		if code == optTsResol && length >= 1 {
			iface.tsUnit = tsResolUnit(opts[0])
		}
		// Options are padded to 4 bytes.
		pad := (4 - length%4) % 4
		if length+pad > len(opts) {
			break
		}
		opts = opts[length+pad:]
	}
	ng.ifaces = append(ng.ifaces, iface)
	return nil
}

// tsResolUnit decodes an if_tsresol byte: MSB clear means 10^-v seconds,
// MSB set means 2^-v seconds.
func tsResolUnit(v byte) time.Duration {
	if v&0x80 == 0 {
		d := time.Second
		for i := byte(0); i < v && d > 1; i++ {
			d /= 10
		}
		return d
	}
	exp := v & 0x7f
	return time.Duration(float64(time.Second) / math.Pow(2, float64(exp)))
}

// Next returns the next packet, or io.EOF at the end of the capture.
func (ng *NGReader) Next() (Packet, error) {
	for {
		var head [8]byte
		if _, err := io.ReadFull(ng.r, head[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return Packet{}, io.EOF
			}
			return Packet{}, fmt.Errorf("pcapng: read block header: %w", err)
		}
		blockType := ng.order.Uint32(head[0:])
		totalLen := ng.order.Uint32(head[4:])
		if blockType == blockSHB {
			// New section: re-parse with a fresh byte order. Push back the
			// 8 bytes read is awkward with bufio; re-read manually.
			var rest [4]byte
			if _, err := io.ReadFull(ng.r, rest[:]); err != nil {
				return Packet{}, fmt.Errorf("pcapng: section header: %w", err)
			}
			switch binary.LittleEndian.Uint32(rest[:]) {
			case byteOrderMagic:
				ng.order = binary.LittleEndian
			case 0x4D3C2B1A:
				ng.order = binary.BigEndian
			default:
				return Packet{}, fmt.Errorf("pcapng: bad byte-order magic")
			}
			totalLen = ng.order.Uint32(head[4:])
			if totalLen < 28 || totalLen%4 != 0 {
				return Packet{}, fmt.Errorf("pcapng: bad section length %d", totalLen)
			}
			if _, err := io.CopyN(io.Discard, ng.r, int64(totalLen-12)); err != nil {
				return Packet{}, err
			}
			ng.ifaces = ng.ifaces[:0]
			continue
		}
		if totalLen < 12 || totalLen%4 != 0 {
			return Packet{}, fmt.Errorf("pcapng: bad block length %d", totalLen)
		}
		if totalLen > maxBlockLen {
			return Packet{}, fmt.Errorf("%w: block length %d", ErrBlockTooLarge, totalLen)
		}
		var body []byte
		if blockType == blockEPB || blockType == blockSPB {
			// Packet blocks are read in place: Packet.Data is carved
			// from the block body, not copied out of it.
			body = ng.chunks.carve(int(totalLen - 12))
		} else {
			body = make([]byte, totalLen-12)
		}
		if _, err := io.ReadFull(ng.r, body); err != nil {
			return Packet{}, fmt.Errorf("pcapng: block body: %w", err)
		}
		var trail [4]byte
		if _, err := io.ReadFull(ng.r, trail[:]); err != nil {
			return Packet{}, fmt.Errorf("pcapng: block trailer: %w", err)
		}
		if ng.order.Uint32(trail[:]) != totalLen {
			return Packet{}, fmt.Errorf("pcapng: trailer length mismatch")
		}

		switch blockType {
		case blockIDB:
			if err := ng.parseIDB(body); err != nil {
				return Packet{}, err
			}
		case blockEPB:
			pkt, ok, err := ng.parseEPB(body)
			if err != nil {
				return Packet{}, err
			}
			if ok {
				return pkt, nil
			}
		case blockSPB:
			pkt, ok, err := ng.parseSPB(body)
			if err != nil {
				return Packet{}, err
			}
			if ok {
				return pkt, nil
			}
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
	}
}

func (ng *NGReader) parseEPB(body []byte) (Packet, bool, error) {
	if len(body) < 20 {
		return Packet{}, false, fmt.Errorf("pcapng: short enhanced packet block")
	}
	ifID := ng.order.Uint32(body[0:])
	tsHigh := ng.order.Uint32(body[4:])
	tsLow := ng.order.Uint32(body[8:])
	capLen := ng.order.Uint32(body[12:])
	if int(capLen) > len(body)-20 {
		return Packet{}, false, fmt.Errorf("pcapng: packet overruns block")
	}
	if int(ifID) >= len(ng.ifaces) {
		return Packet{}, false, fmt.Errorf("pcapng: unknown interface %d", ifID)
	}
	iface := ng.ifaces[ifID]
	if iface.linkType != LinkTypeEthernet {
		return Packet{}, false, nil // skip non-Ethernet interfaces
	}
	ticks := uint64(tsHigh)<<32 | uint64(tsLow)
	end := 20 + int(capLen)
	return Packet{
		Timestamp: time.Unix(0, int64(ticks)*int64(iface.tsUnit)).UTC(),
		Data:      body[20:end:end],
	}, true, nil
}

func (ng *NGReader) parseSPB(body []byte) (Packet, bool, error) {
	if len(body) < 4 {
		return Packet{}, false, fmt.Errorf("pcapng: short simple packet block")
	}
	if len(ng.ifaces) == 0 {
		return Packet{}, false, fmt.Errorf("pcapng: simple packet before interface description")
	}
	if ng.ifaces[0].linkType != LinkTypeEthernet {
		return Packet{}, false, nil
	}
	data := body[4:]
	if origLen := ng.order.Uint32(body[0:]); uint64(origLen) < uint64(len(data)) {
		data = data[:origLen]
	}
	return Packet{Data: data[:len(data):len(data)]}, true, nil
}

// NGWriter emits a little-endian pcapng capture with one Ethernet
// interface at microsecond resolution.
type NGWriter struct {
	w           io.Writer
	wroteHeader bool
}

// NewNGWriter returns an NGWriter targeting w.
func NewNGWriter(w io.Writer) *NGWriter { return &NGWriter{w: w} }

func (nw *NGWriter) writeHeader() error {
	if nw.wroteHeader {
		return nil
	}
	// Section header: 28 bytes, unspecified section length.
	shb := make([]byte, 28)
	binary.LittleEndian.PutUint32(shb[0:], blockSHB)
	binary.LittleEndian.PutUint32(shb[4:], 28)
	binary.LittleEndian.PutUint32(shb[8:], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[12:], 1) // major
	binary.LittleEndian.PutUint64(shb[16:], math.MaxUint64)
	binary.LittleEndian.PutUint32(shb[24:], 28)
	// Interface description: Ethernet, default microsecond resolution.
	idb := make([]byte, 20)
	binary.LittleEndian.PutUint32(idb[0:], blockIDB)
	binary.LittleEndian.PutUint32(idb[4:], 20)
	binary.LittleEndian.PutUint16(idb[8:], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(idb[12:], defaultSnapLen)
	binary.LittleEndian.PutUint32(idb[16:], 20)
	if _, err := nw.w.Write(shb); err != nil {
		return fmt.Errorf("pcapng: write section header: %w", err)
	}
	if _, err := nw.w.Write(idb); err != nil {
		return fmt.Errorf("pcapng: write interface block: %w", err)
	}
	nw.wroteHeader = true
	return nil
}

// WritePacket appends one frame as an enhanced packet block.
func (nw *NGWriter) WritePacket(p Packet) error {
	if err := nw.writeHeader(); err != nil {
		return err
	}
	pad := (4 - len(p.Data)%4) % 4
	total := 32 + len(p.Data) + pad
	block := make([]byte, total)
	binary.LittleEndian.PutUint32(block[0:], blockEPB)
	binary.LittleEndian.PutUint32(block[4:], uint32(total))
	// Interface 0; microsecond ticks.
	ticks := uint64(p.Timestamp.UnixMicro())
	binary.LittleEndian.PutUint32(block[12:], uint32(ticks>>32))
	binary.LittleEndian.PutUint32(block[16:], uint32(ticks))
	binary.LittleEndian.PutUint32(block[20:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(block[24:], uint32(len(p.Data)))
	copy(block[28:], p.Data)
	binary.LittleEndian.PutUint32(block[total-4:], uint32(total))
	if _, err := nw.w.Write(block); err != nil {
		return fmt.Errorf("pcapng: write packet block: %w", err)
	}
	return nil
}

// Flush ensures the section and interface headers exist for empty
// captures.
func (nw *NGWriter) Flush() error { return nw.writeHeader() }

// ReadAllAuto detects the capture format (classic pcap or pcapng) from the
// leading magic and drains it into memory.
func ReadAllAuto(r io.Reader) ([]Packet, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: read magic: %w", err)
	}
	if binary.LittleEndian.Uint32(magic) == blockSHB {
		ng, err := NewNGReader(br)
		if err != nil {
			return nil, err
		}
		var pkts []Packet
		for {
			p, err := ng.Next()
			if errors.Is(err, io.EOF) {
				return pkts, nil
			}
			if err != nil {
				return nil, err
			}
			pkts = append(pkts, p)
		}
	}
	return ReadAll(br)
}
