//go:build linux || darwin

package workflow

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockState takes an exclusive, non-blocking flock on the file at path,
// creating it if needed, and returns the open file that holds the lock:
// closing it releases the lock, and so does the holder's exit, however it
// ends. A holder elsewhere — another process, or another open in this
// one — fails it with ErrStateLocked.
func lockState(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("workflow: lock cache log: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrStateLocked, path)
		}
		return nil, fmt.Errorf("workflow: lock cache log: %w", err)
	}
	return f, nil
}
