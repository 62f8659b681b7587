//go:build !linux && !darwin

package workflow

import "os"

// lockState is a no-op where flock is unavailable: one writer per state
// directory is then the operator's to keep.
func lockState(string) (*os.File, error) { return nil, nil }
