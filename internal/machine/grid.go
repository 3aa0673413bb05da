package machine

import "fmt"

// Grid2 is a pr×pc processor grid over a communicator: rank r sits at
// (r / pc, r % pc), with row and column sub-communicators — the layout used
// by the 2D sparse matrix multiplication variants (§5.2.2).
type Grid2 struct {
	PR, PC   int
	Comm     *Comm
	Row      *Comm // members sharing my row index (size PC)
	Col      *Comm // members sharing my column index (size PR)
	MyR, MyC int
}

// newGrid2 builds a 2D grid; pr*pc must equal the communicator size.
func newGrid2(c *Comm, pr, pc int) *Grid2 {
	if pr*pc != c.Size() {
		panic(fmt.Sprintf("machine: grid %dx%d does not tile %d processors", pr, pc, c.Size()))
	}
	i, j := c.Rank()/pc, c.Rank()%pc
	return &Grid2{
		PR:   pr,
		PC:   pc,
		Comm: c,
		Row:  split(c, i, j),
		Col:  split(c, pr+j, i),
		MyR:  i,
		MyC:  j,
	}
}

// Grid3 is a p1×(p2×p3) grid: p1 layers, each a p2×p3 2D grid, plus fiber
// communicators linking the same 2D position across layers — the nesting
// used by the 3D algorithm variants (§5.2.3).
type Grid3 struct {
	P1, P2, P3 int
	Comm       *Comm
	Layer      *Comm  // within my layer (size P2*P3)
	Fiber      *Comm  // across layers at my 2D position (size P1)
	G2         *Grid2 // 2D grid over Layer
	MyLayer    int
}

// NewGrid3 builds a 3D grid; p1*p2*p3 must equal the communicator size.
// World rank r maps to layer r / (p2*p3), layer-rank r % (p2*p3).
func NewGrid3(c *Comm, p1, p2, p3 int) *Grid3 {
	if p1*p2*p3 != c.Size() {
		panic(fmt.Sprintf("machine: grid %dx%dx%d does not tile %d processors", p1, p2, p3, c.Size()))
	}
	layerSize := p2 * p3
	l := c.Rank() / layerSize
	pos := c.Rank() % layerSize
	layer := split(c, l, pos)
	fiber := split(c, c.Size()+pos, l)
	return &Grid3{
		P1:      p1,
		P2:      p2,
		P3:      p3,
		Comm:    c,
		Layer:   layer,
		Fiber:   fiber,
		G2:      newGrid2(layer, p2, p3),
		MyLayer: l,
	}
}

// Factorizations3 enumerates all ordered triples (p1,p2,p3) with product p,
// the search space of the automatic decomposition selection.
func Factorizations3(p int) [][3]int {
	var out [][3]int
	for p1 := 1; p1 <= p; p1++ {
		if p%p1 != 0 {
			continue
		}
		q := p / p1
		for p2 := 1; p2 <= q; p2++ {
			if q%p2 != 0 {
				continue
			}
			out = append(out, [3]int{p1, p2, q / p2})
		}
	}
	return out
}

// Factorizations2 enumerates all ordered pairs (pr,pc) with product p.
func Factorizations2(p int) [][2]int {
	var out [][2]int
	for pr := 1; pr <= p; pr++ {
		if p%pr == 0 {
			out = append(out, [2]int{pr, p / pr})
		}
	}
	return out
}

// LCM returns the least common multiple, the 2D SUMMA stage count.
func LCM(a, b int) int {
	return a / gcd(a, b) * b
}

// gcd returns the greatest common divisor.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
