package itch

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// MoldUDP64 framing: a 20-byte downstream header (10-byte session,
// 64-bit sequence number, 16-bit message count) followed by count
// messages, each prefixed with a 16-bit length.
const MoldHeaderLen = 20

// EndOfSessionCount is the sentinel message count (0xFFFF) that marks a
// downstream packet as the MoldUDP64 end-of-session announcement: the
// sender is done, Sequence is the next sequence number that will never be
// used. End-of-session packets carry no messages.
const EndOfSessionCount = 0xFFFF

// MoldHeader is the MoldUDP64 downstream packet header.
type MoldHeader struct {
	Session  [10]byte
	Sequence uint64
	Count    uint16
}

// SetSession writes a session identifier (ASCII, space-padded).
func (h *MoldHeader) SetSession(s string) {
	for i := 0; i < 10; i++ {
		if i < len(s) {
			h.Session[i] = s[i]
		} else {
			h.Session[i] = ' '
		}
	}
}

// SessionString returns the session identifier with padding trimmed.
func (h *MoldHeader) SessionString() string {
	return strings.TrimRight(string(h.Session[:]), " ")
}

// DecodeFromBytes parses the header.
//
//camus:hotpath
func (h *MoldHeader) DecodeFromBytes(data []byte) error {
	if len(data) < MoldHeaderLen {
		return ErrTruncated
	}
	copy(h.Session[:], data[0:10])
	h.Sequence = binary.BigEndian.Uint64(data[10:18])
	h.Count = binary.BigEndian.Uint16(data[18:20])
	return nil
}

// SerializeTo writes the header into b (MoldHeaderLen bytes).
//
//camus:hotpath
func (h *MoldHeader) SerializeTo(b []byte) {
	copy(b[0:10], h.Session[:])
	binary.BigEndian.PutUint64(b[10:18], h.Sequence)
	binary.BigEndian.PutUint16(b[18:20], h.Count)
}

// IsHeartbeat reports whether the header frames an idle heartbeat: a
// downstream packet with zero messages whose Sequence advertises the next
// sequence number the sender will use.
func (h *MoldHeader) IsHeartbeat() bool { return h.Count == 0 }

// IsEndOfSession reports whether the header frames the end-of-session
// announcement.
//
//camus:hotpath
func (h *MoldHeader) IsEndOfSession() bool { return h.Count == EndOfSessionCount }

// HeartbeatBytes builds an idle-heartbeat datagram for a session whose
// next unsent sequence number is nextSeq.
func HeartbeatBytes(session [10]byte, nextSeq uint64) []byte {
	h := MoldHeader{Session: session, Sequence: nextSeq, Count: 0}
	b := make([]byte, MoldHeaderLen)
	h.SerializeTo(b)
	return b
}

// EndOfSessionBytes builds the end-of-session datagram: nextSeq is the
// first sequence number that will never be sent.
func EndOfSessionBytes(session [10]byte, nextSeq uint64) []byte {
	h := MoldHeader{Session: session, Sequence: nextSeq, Count: EndOfSessionCount}
	b := make([]byte, MoldHeaderLen)
	h.SerializeTo(b)
	return b
}

// MoldPacket is a MoldUDP64 datagram payload under construction or after
// decoding. Messages hold the raw per-message bytes (type byte first,
// without the 16-bit length prefix).
type MoldPacket struct {
	Header   MoldHeader
	Messages [][]byte
}

// Append adds a message to the packet and bumps the count.
//
//camus:hotpath
func (p *MoldPacket) Append(msg []byte) {
	p.Messages = append(p.Messages, msg)
	p.Header.Count = uint16(len(p.Messages))
}

// WireLen returns the serialized length of the packet.
//
//camus:hotpath
func (p *MoldPacket) WireLen() int {
	n := MoldHeaderLen
	for _, m := range p.Messages {
		n += 2 + len(m)
	}
	return n
}

// Bytes serializes the Mold packet (header + length-prefixed messages).
func (p *MoldPacket) Bytes() []byte {
	return p.AppendTo(nil)
}

// AppendTo serializes the Mold packet into buf (grown as needed) and
// returns the wire bytes. Passing a recycled buffer makes serialization
// allocation-free in steady state — the egress hot path of the software
// dataplane.
//
//camus:hotpath
func (p *MoldPacket) AppendTo(buf []byte) []byte {
	p.Header.Count = uint16(len(p.Messages))
	n := p.WireLen()
	if cap(buf) < n {
		buf = make([]byte, n) //camus:alloc-ok one-time growth; callers pass a recycled buffer in steady state
	}
	buf = buf[:n]
	p.Header.SerializeTo(buf)
	off := MoldHeaderLen
	for _, m := range p.Messages {
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(m)))
		copy(buf[off+2:], m)
		off += 2 + len(m)
	}
	return buf
}

// Decode parses a Mold datagram. Message slices alias into data.
func (p *MoldPacket) Decode(data []byte) error {
	if err := p.Header.DecodeFromBytes(data); err != nil {
		return err
	}
	p.Messages = p.Messages[:0]
	if p.Header.IsEndOfSession() {
		return nil // end-of-session carries no messages
	}
	off := MoldHeaderLen
	for i := 0; i < int(p.Header.Count); i++ {
		if off+2 > len(data) {
			return fmt.Errorf("itch: mold message %d: %w", i, ErrTruncated)
		}
		l := int(binary.BigEndian.Uint16(data[off : off+2]))
		off += 2
		if off+l > len(data) {
			return fmt.Errorf("itch: mold message %d body: %w", i, ErrTruncated)
		}
		p.Messages = append(p.Messages, data[off:off+l])
		off += l
	}
	return nil
}

// ForEachAddOrder decodes a Mold datagram and invokes fn for every
// add-order message, reusing a single AddOrder struct (zero allocation per
// message). Non-add-order messages are skipped.
func ForEachAddOrder(data []byte, fn func(*AddOrder)) error {
	var msg AddOrder
	return DecodeAddOrders(data, &msg, func(m *AddOrder, _ []byte) { fn(m) })
}

// DecodeAddOrders is ForEachAddOrder with a caller-supplied scratch
// AddOrder, additionally passing each message's raw wire bytes (aliasing
// data, without the length prefix) so forwarding paths can reuse them
// instead of re-serializing — the zero-copy egress path of the software
// dataplane. The raw slice is only valid until the caller recycles data.
// A long-lived scratch keeps the message struct off the heap entirely,
// which the dataplane's zero-alloc lanes rely on.
//
//camus:hotpath
func DecodeAddOrders(data []byte, msg *AddOrder, fn func(*AddOrder, []byte)) error {
	var hdr MoldHeader
	if err := hdr.DecodeFromBytes(data); err != nil {
		return err
	}
	if hdr.IsEndOfSession() {
		return nil
	}
	off := MoldHeaderLen
	for i := 0; i < int(hdr.Count); i++ {
		if off+2 > len(data) {
			//camus:alloc-ok malformed-datagram error path; a well-formed feed never takes it
			return fmt.Errorf("itch: mold message %d: %w", i, ErrTruncated)
		}
		l := int(binary.BigEndian.Uint16(data[off : off+2]))
		off += 2
		if off+l > len(data) {
			//camus:alloc-ok malformed-datagram error path; a well-formed feed never takes it
			return fmt.Errorf("itch: mold message %d body: %w", i, ErrTruncated)
		}
		if l > 0 && data[off] == TypeAddOrder {
			if err := msg.DecodeFromBytes(data[off : off+l]); err != nil {
				return err
			}
			fn(msg, data[off:off+l])
		}
		off += l
	}
	return nil
}

// FirstAddOrderLocate scans a Mold datagram for its first add-order
// message and returns that message's stock-locate code — the ITCH
// instrument/partition key the sharded dataplane fans out on. ok is
// false when the datagram has no decodable add-order.
//
//camus:hotpath
func FirstAddOrderLocate(data []byte) (uint16, bool) {
	var hdr MoldHeader
	if err := hdr.DecodeFromBytes(data); err != nil {
		return 0, false
	}
	if hdr.IsEndOfSession() {
		return 0, false
	}
	off := MoldHeaderLen
	for i := 0; i < int(hdr.Count); i++ {
		if off+2 > len(data) {
			return 0, false
		}
		l := int(binary.BigEndian.Uint16(data[off : off+2]))
		off += 2
		if off+l > len(data) {
			return 0, false
		}
		// An add-order's locate code sits right after the type byte.
		if l >= 3 && data[off] == TypeAddOrder {
			return binary.BigEndian.Uint16(data[off+1 : off+3]), true
		}
		off += l
	}
	return 0, false
}
