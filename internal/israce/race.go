//go:build race

// Package israce reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is Put, so allocation-count tests over
// pooled scratch skip themselves.
package israce

// Enabled is true in -race builds.
const Enabled = true
