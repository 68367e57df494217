//go:build !linux || !(amd64 || arm64)

package dataplane

// The mmsg batch-I/O fast path is Linux-only (recvmmsg/sendmmsg); on
// other platforms the reader and the writer are the portable ones
// (readOne, writeOne): the same loops run on per-datagram socket calls.

type batchReader struct{ conn Conn }

type batchWriter struct{ conn Conn }

func newBatchReader(c Conn, _ int) (*batchReader, int) { return &batchReader{conn: c}, 1 }

func newBatchWriter(c Conn, _ int) *batchWriter { return &batchWriter{conn: c} }

func (br *batchReader) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	return readOne(br.conn, bufs, sizes)
}

//camus:hotpath
func (bw *batchWriter) WriteBatch(out []wireEntry) (int, error) { return writeOne(bw.conn, out) }
