// Package fixed implements the fixed-point quantization substrate: the
// rounding modes and the fast float64 grid quantizer that the Monte-Carlo
// simulation engine applies at every block boundary.
package fixed

import "fmt"

// RoundMode selects how discarded fractional bits are resolved.
type RoundMode int

const (
	// Truncate discards low bits (round toward negative infinity for
	// two's-complement), the cheapest hardware mode. PQN model: mean -q/2.
	Truncate RoundMode = iota
	// RoundNearest rounds half away from zero-of-the-grid upward
	// (round-half-up on the raw integer), the common DSP mode. PQN model:
	// mean 0 (up to q*2^-extra bias).
	RoundNearest
	// RoundConvergent rounds half to even, removing the half-up bias.
	RoundConvergent
)

// String implements fmt.Stringer.
func (m RoundMode) String() string {
	switch m {
	case Truncate:
		return "truncate"
	case RoundNearest:
		return "round-nearest"
	case RoundConvergent:
		return "round-convergent"
	default:
		return fmt.Sprintf("RoundMode(%d)", int(m))
	}
}
