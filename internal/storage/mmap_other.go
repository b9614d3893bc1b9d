//go:build !linux && !darwin

package storage

import (
	"io"
	"os"
)

// mmapFile on platforms without the syscall mmap shim reads the file
// onto the heap; the decoder works identically, just without the
// zero-copy aliasing.
func mmapFile(f *os.File) ([]byte, error) {
	return io.ReadAll(f)
}

func munmapFile([]byte) error { return nil }

func releasePages(*mapping) {}
