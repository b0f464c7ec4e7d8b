package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/codec"
)

// Slab compression is the wire's bandwidth lever for columnar batches: the
// section slabs that dominate a batch payload (branch paths, syscall
// streams, digests) repeat heavily within one program's batch, so DEFLATE
// at its fastest setting routinely shrinks them several-fold. The encoding
// is uvarint(decompressed length) followed by a raw DEFLATE stream.
//
// Compression is a transport concern only: the decompressed bytes are the
// canonical batch payload — a durable hive journals *those* (the same
// bytes the pod sealed, byte-identical to an uncompressed submission), so
// recovery, dedup, and journal-identity guarantees never see a compressed
// byte. Encoders and decoders are pooled; steady-state compression
// allocates only when the destination grows.

// slabCompressLevel trades ratio for speed: the slab data is so
// self-similar that BestSpeed already captures most of the win, and the
// compressor sits on the pod's drain hot path.
const slabCompressLevel = flate.BestSpeed

// slabCompressor pairs a reusable flate writer with the append sink it
// writes through.
type slabCompressor struct {
	fw *flate.Writer
	aw appendSink
}

// appendSink adapts append-to-slice to io.Writer for the pooled flate
// writer.
type appendSink struct{ buf []byte }

func (a *appendSink) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

var slabCompressorPool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, slabCompressLevel)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return &slabCompressor{fw: fw}
}}

// slabDecompressor pairs a reusable flate reader with the bytes.Reader it
// inflates from.
type slabDecompressor struct {
	br bytes.Reader
	fr io.ReadCloser
}

var slabDecompressorPool = sync.Pool{New: func() any {
	d := &slabDecompressor{}
	d.fr = flate.NewReader(&d.br)
	return d
}}

// slabBufPool recycles decompression output buffers. Boxes, like the wire
// frame pool, so recycling never re-boxes the slice header.
var slabBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// CompressSlab appends the compressed encoding of raw — uvarint
// decompressed length, then a DEFLATE stream — to dst and returns the
// extended slice. The compressor is pooled; compressing to a
// pre-grown dst allocates nothing.
func CompressSlab(dst []byte, raw []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	c := slabCompressorPool.Get().(*slabCompressor)
	c.aw.buf = dst
	c.fw.Reset(&c.aw)
	// Writes to an append sink cannot fail.
	_, _ = c.fw.Write(raw)
	_ = c.fw.Close()
	dst = c.aw.buf
	c.aw.buf = nil // do not retain the caller's buffer
	slabCompressorPool.Put(c)
	return dst
}

// DecompressSlab inflates a CompressSlab payload into a pooled buffer,
// guarding against decompression bombs: the claimed decompressed length
// must not exceed maxRaw, and the stream must inflate to exactly that
// length. The returned box owns the bytes — hand it back with ReleaseSlab
// when the payload has been fully consumed; the bytes must not be retained
// past that.
func DecompressSlab(payload []byte, maxRaw int) (*[]byte, error) {
	r := codec.NewDecoder(payload, ErrCodec, "compressed slab")
	rawLen := r.Uvarint()
	if r.Err() == nil && rawLen > uint64(maxRaw) {
		r.Fail("claims %d bytes, max %d", rawLen, maxRaw)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	d := slabDecompressorPool.Get().(*slabDecompressor)
	defer func() {
		d.br.Reset(nil)
		slabDecompressorPool.Put(d)
	}()
	d.br.Reset(payload[r.Pos():])
	if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	bp := slabBufPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < int(rawLen) {
		buf = make([]byte, rawLen)
	} else {
		buf = buf[:rawLen]
	}
	*bp = buf
	if _, err := io.ReadFull(d.fr, buf); err != nil {
		ReleaseSlab(bp)
		return nil, fmt.Errorf("%w: compressed slab shorter than claimed: %v", ErrCodec, err)
	}
	// The stream must end exactly at the claimed length: a stream that
	// keeps inflating is lying about its size (bomb guard), and one frame
	// must decode to one canonical payload.
	var probe [1]byte
	if m, err := io.ReadFull(d.fr, probe[:]); m != 0 || err != io.EOF {
		ReleaseSlab(bp)
		return nil, fmt.Errorf("%w: compressed slab longer than claimed %d bytes", ErrCodec, rawLen)
	}
	return bp, nil
}

// ReleaseSlab returns a DecompressSlab buffer to the pool. The bytes (and
// any view decoded over them) must not be used afterwards.
func ReleaseSlab(bp *[]byte) { slabBufPool.Put(bp) }
