// Package itch implements the Nasdaq market-data wire formats used in the
// paper's case study: MoldUDP64 framing and the ITCH 5.0 add-order
// message that Camus subscriptions filter on. Like the paper's switch
// parser, it decodes only that message: any other ITCH message is skipped
// by its length prefix, its type byte the only part read.
//
// Like real ITCH, alpha fields (stock symbols, the buy/sell indicator) are
// ASCII, left-justified and space-padded; integers are big-endian;
// timestamps are nanoseconds since midnight in 48 bits. Decoding follows
// the gopacket DecodingLayer idiom: preallocated structs, no per-message
// allocation.
package itch

import (
	"encoding/binary"
	"errors"
	"strings"
)

// TypeAddOrder is the ITCH 5.0 type byte of the add-order message.
const TypeAddOrder = 'A'

// AddOrderLen is the add-order message's wire length (type byte
// included).
const AddOrderLen = 36

// Common errors.
var (
	ErrTruncated = errors.New("itch: truncated message")
	// ErrNotAddOrder is returned by AddOrder.DecodeFromBytes for a
	// well-formed message of a different type. It is a sentinel, not a
	// formatted error: decoding runs per message on the dataplane's
	// zero-alloc lanes, where an fmt.Errorf would allocate.
	ErrNotAddOrder = errors.New("itch: message is not an add-order")
)

// Side is the buy/sell indicator of an add-order message.
type Side byte

// Side values.
const (
	Buy  Side = 'B'
	Sell Side = 'S'
)

// AddOrder is the ITCH 5.0 "Add Order — No MPID" message ('A'): a new
// order accepted by the exchange. This is the message the paper's
// subscriptions match on (stock, shares, price).
type AddOrder struct {
	StockLocate    uint16
	TrackingNumber uint16
	Timestamp      uint64 // 48-bit nanoseconds since midnight
	OrderRef       uint64
	Side           Side
	Shares         uint32
	Stock          [8]byte // ASCII, space-padded
	Price          uint32  // price in 1/10000 dollars (ITCH fixed point)
}

// SetStock writes a symbol into the fixed-width stock field.
func (m *AddOrder) SetStock(sym string) {
	for i := 0; i < 8; i++ {
		if i < len(sym) {
			m.Stock[i] = sym[i]
		} else {
			m.Stock[i] = ' '
		}
	}
}

// StockSymbol returns the stock symbol with padding trimmed.
func (m *AddOrder) StockSymbol() string {
	return strings.TrimRight(string(m.Stock[:]), " ")
}

// StockValue returns the stock field as the big-endian uint64 the Camus
// pipeline matches on.
func (m *AddOrder) StockValue() uint64 {
	return binary.BigEndian.Uint64(m.Stock[:])
}

// DecodeFromBytes parses an add-order message (including the type byte).
//
//camus:hotpath
func (m *AddOrder) DecodeFromBytes(data []byte) error {
	if len(data) < AddOrderLen {
		return ErrTruncated
	}
	if data[0] != TypeAddOrder {
		return ErrNotAddOrder
	}
	m.StockLocate = binary.BigEndian.Uint16(data[1:3])
	m.TrackingNumber = binary.BigEndian.Uint16(data[3:5])
	m.Timestamp = uint48(data[5:11])
	m.OrderRef = binary.BigEndian.Uint64(data[11:19])
	m.Side = Side(data[19])
	m.Shares = binary.BigEndian.Uint32(data[20:24])
	copy(m.Stock[:], data[24:32])
	m.Price = binary.BigEndian.Uint32(data[32:36])
	return nil
}

// SerializeTo writes the message into b, which must hold AddOrderLen
// bytes.
func (m *AddOrder) SerializeTo(b []byte) {
	b[0] = TypeAddOrder
	binary.BigEndian.PutUint16(b[1:3], m.StockLocate)
	binary.BigEndian.PutUint16(b[3:5], m.TrackingNumber)
	putUint48(b[5:11], m.Timestamp)
	binary.BigEndian.PutUint64(b[11:19], m.OrderRef)
	b[19] = byte(m.Side)
	binary.BigEndian.PutUint32(b[20:24], m.Shares)
	copy(b[24:32], m.Stock[:])
	binary.BigEndian.PutUint32(b[32:36], m.Price)
}

// Bytes serializes the message into a fresh buffer.
func (m *AddOrder) Bytes() []byte {
	b := make([]byte, AddOrderLen)
	m.SerializeTo(b)
	return b
}

//camus:hotpath
func uint48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

func putUint48(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

// PriceToFixed converts a dollar price to ITCH 1/10000-dollar fixed point.
func PriceToFixed(dollars float64) uint32 {
	return uint32(dollars*10000 + 0.5)
}
