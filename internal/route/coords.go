package route

import (
	"math/bits"

	"meshsort/internal/grid"
)

// coords is the coordinate extraction shared by the mesh policies. Their
// NextLink runs once per moving packet per hop — hundreds of millions of
// times in a million-processor phase — so when side = 2^k the extraction
// (rank / pow) % side becomes (rank >> shift) & mask, two single-cycle
// operations instead of two integer divisions. Every benchmark-ladder
// side is a power of two; odd sides keep the division.
type coords struct {
	side   int
	pows   []int  // pows[i] = side^(dim-1-i): stride of dimension i
	shifts []uint // shifts[i] = log2(pows[i]); valid only when pow2
	mask   int    // side - 1; valid only when pow2
	pow2   bool
}

func newCoords(s grid.Shape) coords {
	c := coords{side: s.Side, pows: make([]int, s.Dim)}
	p := 1
	for i := s.Dim - 1; i >= 0; i-- {
		c.pows[i] = p
		p *= s.Side
	}
	if s.Side&(s.Side-1) == 0 {
		c.pow2 = true
		c.mask = s.Side - 1
		logSide := uint(bits.TrailingZeros(uint(s.Side)))
		c.shifts = make([]uint, s.Dim)
		for i := range c.shifts {
			c.shifts[i] = logSide * uint(s.Dim-1-i)
		}
	}
	return c
}

// at returns rank's coordinate along dim.
func (c *coords) at(rank, dim int) int {
	if c.pow2 {
		return (rank >> c.shifts[dim]) & c.mask
	}
	return (rank / c.pows[dim]) % c.side
}
