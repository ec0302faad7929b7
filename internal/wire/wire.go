// Package wire defines the on-the-wire representation of the packets that
// flow through the emulated network: an IP-like network header plus fully
// serialized TCP segments and UDP datagrams.
//
// TCP segments follow the RFC 793 layout, including the 4-bit data-offset
// field that caps the entire TCP header at 60 bytes and therefore the
// option space at 40 bytes. That cap is load-bearing for this repository:
// the TCPLS paper (§3.1) motivates moving TCP options into the encrypted
// TLS channel precisely because the cleartext header has run out of room.
// Middleboxes in internal/netsim operate on these serialized bytes, so
// option stripping, NAT rewriting and RST injection behave as they do on
// real networks.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// Protocol numbers carried in the network header, mirroring IANA values.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Packet is the unit the emulated network forwards: an IP-like header and
// an opaque transport payload (a serialized Segment or Datagram).
type Packet struct {
	Src     netip.Addr
	Dst     netip.Addr
	Proto   uint8
	TTL     uint8
	Payload []byte
}

// Clone returns a deep copy of the packet. Middleboxes mutate clones so a
// packet queued on several links is never shared.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

// Len returns the total emulated size of the packet in bytes, used by
// links for bandwidth accounting: transport payload plus a 40-byte
// network-header allowance (IPv4 20 plus margin; close enough to v6 too).
func (p *Packet) Len() int { return len(p.Payload) + 40 }

// String renders a compact one-line summary for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s > %s proto=%d len=%d", p.Src, p.Dst, p.Proto, len(p.Payload))
}

// Flags is the TCP flag byte.
type Flags uint8

// TCP control flags.
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether every flag in f2 is set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders flags in tcpdump style, e.g. "SYN|ACK".
func (f Flags) String() string {
	names := []struct {
		f Flags
		s string
	}{
		{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if f.Has(n.f) {
			if out != "" {
				out += "|"
			}
			out += n.s
		}
	}
	if out == "" {
		out = "none"
	}
	return out
}

// TCP header geometry constants.
const (
	// BaseHeaderLen is the length of the fixed TCP header.
	BaseHeaderLen = 20
	// MaxHeaderLen is the maximum TCP header length expressible by the
	// 4-bit data-offset field (15 words): the famous 60-byte ceiling.
	MaxHeaderLen = 60
	// MaxOptionSpace is the room left for options: 40 bytes, shared by
	// every TCP extension ever standardized. TCPLS's motivation in one
	// constant.
	MaxOptionSpace = MaxHeaderLen - BaseHeaderLen
)

// ErrOptionSpace is returned by Segment.Marshal when the encoded options
// exceed the 40 bytes the TCP header can carry.
var ErrOptionSpace = errors.New("wire: TCP options exceed 40-byte header space")

// ErrTruncated is returned when unmarshalling runs out of bytes.
var ErrTruncated = errors.New("wire: truncated")

// ErrChecksum is returned by UnmarshalSegment when verification is
// requested and the checksum does not match.
var ErrChecksum = errors.New("wire: bad TCP checksum")

// Segment is a parsed TCP segment.
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   Flags
	Window  uint16
	Options []Option
	Payload []byte
}

// String renders a tcpdump-like summary.
func (s *Segment) String() string {
	return fmt.Sprintf("%d>%d %s seq=%d ack=%d win=%d opts=%d len=%d",
		s.SrcPort, s.DstPort, s.Flags, s.Seq, s.Ack, s.Window, len(s.Options), len(s.Payload))
}

// HeaderLen returns the header length the segment will marshal to,
// including option padding to a 32-bit boundary.
func (s *Segment) HeaderLen() (int, error) {
	optLen := 0
	for i := range s.Options {
		optLen += s.Options[i].wireLen()
	}
	optLen = (optLen + 3) &^ 3 // pad to 32-bit words
	if optLen > MaxOptionSpace {
		return 0, ErrOptionSpace
	}
	return BaseHeaderLen + optLen, nil
}

// Marshal serializes the segment, computing the checksum over the
// RFC 793 pseudo-header built from src and dst.
func (s *Segment) Marshal(src, dst netip.Addr) ([]byte, error) {
	hdrLen, err := s.HeaderLen()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, hdrLen+len(s.Payload))
	if _, err := s.MarshalInto(buf, src, dst); err != nil {
		return nil, err
	}
	return buf, nil
}

// MarshalInto serializes the segment into b, which must hold at least
// HeaderLen()+len(Payload) bytes, and returns the number of bytes
// written. It lets callers marshal into pooled buffers without a
// per-segment allocation.
func (s *Segment) MarshalInto(b []byte, src, dst netip.Addr) (int, error) {
	hdrLen, err := s.HeaderLen()
	if err != nil {
		return 0, err
	}
	if len(b) < hdrLen+len(s.Payload) {
		return 0, ErrTruncated
	}
	buf := b[:hdrLen+len(s.Payload)]
	binary.BigEndian.PutUint16(buf[0:], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:], s.Seq)
	binary.BigEndian.PutUint32(buf[8:], s.Ack)
	buf[12] = uint8(hdrLen/4) << 4
	buf[13] = uint8(s.Flags)
	binary.BigEndian.PutUint16(buf[14:], s.Window)
	// buf[16:18] checksum, filled below; b may be recycled, so zero the
	// checksum and urgent-pointer fields rather than trusting make().
	buf[16], buf[17], buf[18], buf[19] = 0, 0, 0, 0
	off := BaseHeaderLen
	for i := range s.Options {
		off += s.Options[i].put(buf[off:])
	}
	for off < hdrLen {
		buf[off] = optEOL
		off++
	}
	copy(buf[hdrLen:], s.Payload)
	binary.BigEndian.PutUint16(buf[16:], Checksum(src, dst, ProtoTCP, buf))
	return len(buf), nil
}

// UnmarshalSegment parses b into a freshly allocated Segment. If verify is
// true the TCP checksum is validated against the pseudo-header for
// src/dst. The returned segment's Payload and Options[i].Data alias b.
func UnmarshalSegment(b []byte, src, dst netip.Addr, verify bool) (*Segment, error) {
	s := new(Segment)
	if err := s.Unmarshal(b, src, dst, verify); err != nil {
		return nil, err
	}
	return s, nil
}

// Unmarshal parses b into the caller's segment, overwriting every field.
// The parsed options are appended to s.Options[:0], so a segment reused
// from packet to packet reuses its option array and a segment without
// options never allocates one. Payload and Options[i].Data alias b. On
// error s is left partially filled and must not be used.
func (s *Segment) Unmarshal(b []byte, src, dst netip.Addr, verify bool) error {
	if len(b) < BaseHeaderLen {
		return ErrTruncated
	}
	hdrLen := int(b[12]>>4) * 4
	if hdrLen < BaseHeaderLen || hdrLen > len(b) {
		return ErrTruncated
	}
	if verify && Checksum(src, dst, ProtoTCP, b) != 0 {
		return ErrChecksum
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:])
	s.DstPort = binary.BigEndian.Uint16(b[2:])
	s.Seq = binary.BigEndian.Uint32(b[4:])
	s.Ack = binary.BigEndian.Uint32(b[8:])
	s.Flags = Flags(b[13])
	s.Window = binary.BigEndian.Uint16(b[14:])
	s.Payload = b[hdrLen:]
	var err error
	s.Options, err = parseOptions(s.Options[:0], b[BaseHeaderLen:hdrLen])
	return err
}

// Checksum computes the Internet checksum of data prefixed by the
// pseudo-header (src, dst, proto, length). Computing it over a buffer
// whose checksum field is already populated yields 0 for a valid packet.
//
// The one's-complement sum is order-independent and survives widening:
// the data is summed as big-endian 64-bit words with end-around carry
// (2^16-1 divides 2^64-1, so folding the wide sum yields the 16-bit
// sum), four words per step, and folded to 16 bits once at the end.
func Checksum(src, dst netip.Addr, proto uint8, data []byte) uint16 {
	sa, da := src.As16(), dst.As16()
	var sum, c uint64
	sum, c = bits.Add64(binary.BigEndian.Uint64(sa[0:]), binary.BigEndian.Uint64(sa[8:]), 0)
	sum, c = bits.Add64(sum, binary.BigEndian.Uint64(da[0:]), c)
	sum, c = bits.Add64(sum, binary.BigEndian.Uint64(da[8:]), c)
	// proto and the 32-bit length, as the three 16-bit words they occupy.
	sum, c = bits.Add64(sum, uint64(proto)+uint64(uint16(len(data)>>16))+uint64(uint16(len(data))), c)

	b := data
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[0:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	if len(b) > 0 {
		// Tail of 1..7 bytes, zero-padded on the right: the same value
		// the 16-bit definition gives an odd trailing byte.
		var tail [8]byte
		copy(tail[:], b)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(tail[:]), c)
	}
	// Fold 64 -> 32 -> 16 with end-around carry. A non-zero sum never
	// folds to zero, so the result matches 16-bit accumulation bit for
	// bit (0xffff, not 0x0000, for a sum that is a multiple of 0xffff).
	sum, c = bits.Add64(sum, 0, c)
	sum += c
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// Datagram is a parsed UDP datagram (used by the QUIC-like comparator).
type Datagram struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Marshal serializes the datagram with an RFC 768 header.
func (d *Datagram) Marshal(src, dst netip.Addr) []byte {
	buf := make([]byte, 8+len(d.Payload))
	binary.BigEndian.PutUint16(buf[0:], d.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], d.DstPort)
	binary.BigEndian.PutUint16(buf[4:], uint16(len(buf)))
	copy(buf[8:], d.Payload)
	binary.BigEndian.PutUint16(buf[6:], Checksum(src, dst, ProtoUDP, buf))
	return buf
}

// UnmarshalDatagram parses a UDP datagram. The Payload aliases b.
func UnmarshalDatagram(b []byte) (*Datagram, error) {
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[4:]))
	if n < 8 || n > len(b) {
		return nil, ErrTruncated
	}
	return &Datagram{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Payload: b[8:n],
	}, nil
}
