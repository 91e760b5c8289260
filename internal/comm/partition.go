package comm

// Range is a half-open index interval [Lo, Hi) into a flat buffer.
type Range struct {
	Lo, Hi int
}

// Len returns the number of elements in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits n elements into parts near-equal ranges: the first
// n%parts ranges get one extra element. This is the partitioning rule ZeRO
// uses for optimizer states, gradients and parameters ("we group the
// optimizer states into Nd equal partitions", §5.1); near-equal handles the
// common case where the parameter count does not divide evenly.
func Partition(n, parts int) []Range {
	if parts <= 0 {
		panic("comm: Partition needs at least one part")
	}
	if n < 0 {
		panic("comm: Partition of negative length")
	}
	out := make([]Range, parts)
	for i := range out {
		out[i] = evenRange(n, parts, i)
	}
	return out
}

// evenRange returns Partition(n, parts)[i] without building the list — the
// per-call form the ring collectives use when no explicit partition is given.
func evenRange(n, parts, i int) Range {
	base, extra := n/parts, n%parts
	lo := i*base + min(i, extra)
	if i < extra {
		return Range{Lo: lo, Hi: lo + base + 1}
	}
	return Range{Lo: lo, Hi: lo + base}
}

// chunk returns ring chunk i of an n-element buffer split over size members:
// parts[i], or the even split when parts is nil.
func chunk(parts []Range, n, size, i int) Range {
	if parts == nil {
		return evenRange(n, size, i)
	}
	return parts[i]
}
