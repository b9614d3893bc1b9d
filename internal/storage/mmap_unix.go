//go:build linux || darwin

package storage

import (
	"os"
	"syscall"
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
