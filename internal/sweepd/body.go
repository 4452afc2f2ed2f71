package sweepd

import (
	"bytes"
	"sync"
)

// maxPooledBuf caps the buffers bufPool keeps, so one large sweep's body
// does not stay pinned in memory after its request.
const maxPooledBuf = 1 << 20

// bufPool recycles the buffers that both ends read JSON bodies into and that
// outcome responses are built in.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf returns an empty buffer from the pool.
func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBuf returns b to the pool unless it has grown past maxPooledBuf. Nothing
// may reference b's bytes afterwards: unmarshal copies every string and raw
// value it decodes, on its one-pass scan and on json.Unmarshal alike.
func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}
