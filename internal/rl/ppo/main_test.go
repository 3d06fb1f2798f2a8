package ppo

import (
	"os"
	"testing"

	"repro/internal/nn"
)

// TestMain runs every test with the lane kernels and again with the Go
// kernels: the goldens and references must hold on both paths.
func TestMain(m *testing.M) { os.Exit(nn.RunKernelPaths(m.Run)) }
