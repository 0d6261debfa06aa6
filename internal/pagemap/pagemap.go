// Package pagemap provides memory-mapped, read-only access to column files.
//
// It reproduces the paper's memory-management model (§3.1): persistent
// columns are not managed by a buffer pool — they are memory-mapped and the
// operating system pages them in and out on demand. Hot columns stay
// resident; cold columns cost no RAM. On platforms without mmap support the
// package transparently falls back to reading the file into memory.
//
// The typed view functions (Int32s, Float64s, ...) reinterpret the mapped
// bytes as value slices without copying — this is the storage half of the
// paper's zero-copy story. The mappings are read-only at the OS level, so a
// stray write through a zero-copy result column faults exactly like writing
// to an mprotect'ed page in MonetDBLite.
package pagemap

import (
	"fmt"
	"os"
	"unsafe"
)

// Mapping is a read-only view of a file's contents, either memory-mapped or
// (fallback) read into an anonymous buffer.
type Mapping struct {
	data   []byte
	mapped bool // true when backed by mmap and requiring munmap
}

// Map opens path for read-only, page-cached access.
func Map(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{data: nil}, nil
	}
	if m, err := mmapFile(f, int(size)); err == nil {
		return m, nil
	}
	// Fallback: plain read (portable, used when mmap is unavailable).
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

// Bytes returns the mapped contents. The slice must be treated as read-only
// when it is an OS memory mapping: writing faults at the OS level.
func (m *Mapping) Bytes() []byte { return m.data }

// Close releases the mapping. The typed views obtained from it must not be
// used afterwards.
func (m *Mapping) Close() error {
	if !m.mapped || m.data == nil {
		m.data = nil
		return nil
	}
	err := munmap(m.data)
	m.data = nil
	m.mapped = false
	return err
}

// alignCheck validates that the byte buffer can be reinterpreted as a slice
// of elemSize-byte values.
func alignCheck(b []byte, elemSize int) error {
	if len(b)%elemSize != 0 {
		return fmt.Errorf("pagemap: buffer length %d not a multiple of %d", len(b), elemSize)
	}
	if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%uintptr(elemSize) != 0 {
		return fmt.Errorf("pagemap: buffer misaligned for %d-byte values", elemSize)
	}
	return nil
}

// Int8s reinterprets b as []int8 without copying.
func Int8s(b []byte) ([]int8, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b)), nil
}

// Int16s reinterprets b as []int16 without copying.
func Int16s(b []byte) ([]int16, error) {
	if err := alignCheck(b, 2); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&b[0])), len(b)/2), nil
}

// Int32s reinterprets b as []int32 without copying.
func Int32s(b []byte) ([]int32, error) {
	if err := alignCheck(b, 4); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// Int64s reinterprets b as []int64 without copying.
func Int64s(b []byte) ([]int64, error) {
	if err := alignCheck(b, 8); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// Float64s reinterprets b as []float64 without copying.
func Float64s(b []byte) ([]float64, error) {
	if err := alignCheck(b, 8); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// Uint32s reinterprets b as []uint32 without copying (string offset arrays).
func Uint32s(b []byte) ([]uint32, error) {
	if err := alignCheck(b, 4); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// Uint64s reinterprets b as []uint64 without copying (bit-packed code words).
func Uint64s(b []byte) ([]uint64, error) {
	if err := alignCheck(b, 8); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// BytesOfInt32s exposes a typed slice's backing memory as bytes (write path).
func BytesOfInt32s(xs []int32) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*4)
}

// BytesOfInt64s exposes a typed slice's backing memory as bytes (write path).
func BytesOfInt64s(xs []int64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
}

// BytesOfFloat64s exposes a typed slice's backing memory as bytes.
func BytesOfFloat64s(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
}

// BytesOfInt16s exposes a typed slice's backing memory as bytes.
func BytesOfInt16s(xs []int16) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*2)
}

// BytesOfInt8s exposes a typed slice's backing memory as bytes.
func BytesOfInt8s(xs []int8) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs))
}

// BytesOfUint32s exposes a typed slice's backing memory as bytes.
func BytesOfUint32s(xs []uint32) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*4)
}

// BytesOfUint64s exposes a typed slice's backing memory as bytes.
func BytesOfUint64s(xs []uint64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
}
