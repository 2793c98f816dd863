//go:build !amd64

package cpu

// Without a vector body the Go bodies are the only path.
const vector = false

// PortableForTest has nothing to switch off here; see the amd64 one.
func PortableForTest() (restore func()) { return func() {} }
