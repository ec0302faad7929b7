package wire

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// checksumRef is the textbook Internet checksum — one 16-bit big-endian
// word at a time into a 32-bit accumulator — kept as the reference the
// word-wide Checksum is compared against.
func checksumRef(src, dst netip.Addr, proto uint8, data []byte) uint16 {
	var sum uint32
	addBytes := func(b []byte) {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(b[i:]))
		}
		if len(b)%2 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
	}
	sa, da := src.As16(), dst.As16()
	addBytes(sa[:])
	addBytes(da[:])
	sum += uint32(proto)
	sum += uint32(uint16(len(data) >> 16))
	sum += uint32(uint16(len(data)))
	addBytes(data)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

var checksumAddrs = [][2]netip.Addr{
	{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")},
	{netip.MustParseAddr("255.255.255.255"), netip.MustParseAddr("255.255.255.254")},
	{netip.MustParseAddr("fc00::1"), netip.MustParseAddr("fc00::2")},
	{netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), netip.MustParseAddr("::")},
}

// TestChecksumMatchesReference compares Checksum with the 16-bit loop over
// every length 0–2048 (so every tail length and every position of the
// 32- and 8-byte strides), at unaligned starts, over v4 and v6
// pseudo-headers, for random bytes and for the all-ones and all-zero
// buffers that exercise carry propagation and the two one's-complement
// zeros.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	backing := make([]byte, 2048+8)
	fills := map[string]func(){
		"random": func() { rng.Read(backing) },
		"ones": func() {
			for i := range backing {
				backing[i] = 0xff
			}
		},
		"zeros": func() { clear(backing) },
	}
	for name, fill := range fills {
		fill()
		for n := 0; n <= 2048; n++ {
			start := n % 8 // every alignment, without an 8x longer test
			data := backing[start : start+n]
			for _, ad := range checksumAddrs {
				for _, proto := range []uint8{ProtoTCP, ProtoUDP} {
					got, want := Checksum(ad[0], ad[1], proto, data), checksumRef(ad[0], ad[1], proto, data)
					if got != want {
						t.Fatalf("%s len=%d start=%d %s>%s proto=%d: got %#04x want %#04x",
							name, n, start, ad[0], ad[1], proto, got, want)
					}
				}
			}
		}
	}
}

// FuzzChecksum lets the fuzzer pick the bytes, the start alignment and
// the address family.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(2))
	f.Add(make([]byte, 1461), uint8(7))
	f.Fuzz(func(t *testing.T, b []byte, sel uint8) {
		data := b[min(int(sel&7), len(b)):]
		ad := checksumAddrs[int(sel>>3)%len(checksumAddrs)]
		proto := ProtoTCP
		if sel&0x80 != 0 {
			proto = ProtoUDP
		}
		if got, want := Checksum(ad[0], ad[1], proto, data), checksumRef(ad[0], ad[1], proto, data); got != want {
			t.Fatalf("len=%d %s>%s proto=%d: got %#04x want %#04x", len(data), ad[0], ad[1], proto, got, want)
		}
	})
}

var benchSum uint16

// BenchmarkChecksum1460 is the wire.checksum row of the layer ledger: one
// full-size segment's worth of bytes under a v4 pseudo-header.
func BenchmarkChecksum1460(b *testing.B) {
	src, dst := checksumAddrs[0][0], checksumAddrs[0][1]
	data := make([]byte, 1460)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSum += Checksum(src, dst, ProtoTCP, data)
	}
}

// BenchmarkSegmentCodec1460 marshals one full-size data segment into a
// caller's buffer and decodes it, checksum verified, into a caller's
// segment — what every data segment costs at the two ends of a link. It
// reports allocations: the in-place path makes none.
func BenchmarkSegmentCodec1460(b *testing.B) {
	src, dst := checksumAddrs[0][0], checksumAddrs[0][1]
	payload := make([]byte, 1460-BaseHeaderLen)
	rand.New(rand.NewSource(1)).Read(payload)
	seg := &Segment{SrcPort: 49152, DstPort: 443, Seq: 1, Ack: 1, Flags: FlagACK | FlagPSH,
		Window: 65535, Payload: payload}
	buf := make([]byte, 1460)
	var in Segment
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Seq = uint32(i)
		if _, err := seg.MarshalInto(buf, src, dst); err != nil {
			b.Fatal(err)
		}
		if err := in.Unmarshal(buf, src, dst, true); err != nil {
			b.Fatal(err)
		}
		benchSum += uint16(in.Seq)
	}
}
