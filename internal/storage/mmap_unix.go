//go:build linux || darwin

package storage

import (
	"os"
	"syscall"
	"unsafe"
)

// mmapFile maps a file read-only. The mapping stays valid until
// munmapFile, which its owner (see mapping in store.go) calls exactly
// once: when nothing references the owner any more, or at Store.Close.
func mmapFile(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}

// releasePages gives a mapping's resident pages back at once: a reader still
// holding the shared, read-only mapping faults them back in from the file.
// The advice may fail harmlessly: the pages then go at the unmap.
func releasePages(m *mapping) {
	if m != nil && len(m.data) > 0 {
		_, _, _ = syscall.Syscall(syscall.SYS_MADVISE, uintptr(unsafe.Pointer(&m.data[0])), uintptr(len(m.data)), syscall.MADV_DONTNEED)
	}
}
