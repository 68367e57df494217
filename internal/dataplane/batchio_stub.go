//go:build !linux || !(amd64 || arm64)

package dataplane

import "net"

// The mmsg batch-I/O fast path is Linux-only (recvmmsg/sendmmsg); on
// other platforms the reader is the portable one (readOne), the writer
// constructor returns nil and egress keeps the per-datagram socket calls.

type batchReader struct{ conn Conn }

type batchWriter struct{}

func newBatchReader(c Conn, _ int) (*batchReader, int) { return &batchReader{conn: c}, 1 }

func newBatchWriter(Conn) *batchWriter { return nil }

func (br *batchReader) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	return readOne(br.conn, bufs, sizes)
}

func (*batchWriter) WriteBatch(_, _ [][]byte, _ []*net.UDPAddr) (int, error) { return 0, nil }
