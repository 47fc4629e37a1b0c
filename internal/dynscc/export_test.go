package dynscc

// lossAreaSweep is lossArea as it was before candidates were ranked and
// stopped early: every candidate's area is listed in full and the smallest
// taken, the first on a tie. TestLossAreaMatchesSweep holds lossArea's
// Touched to it.
func (c *Cond) lossAreaSweep(t, h, host int32) {
	c.bitStamp = c.cstamps(1)
	xs := c.sweep(c.bufA[:0], t, inX, false)
	ys := c.sweep(c.bufB[:0], h, inY, true)
	c.bufA, c.bufB = xs[:0], ys[:0]

	c.bufC = c.sweep(c.bufC[:0], h, toH, false)[:0]
	c.bufC = c.sweep(c.bufC[:0], t, byT, true)[:0]
	hubs := []hub{
		{skipA: toH, skipB: inY, nearA: nearA, nearB: nearB},
		{skipA: inX, skipB: byT, nearA: nearA << 1, nearB: nearB << 1},
	}
	if host >= 0 && host != t && host != h {
		c.bufC = c.sweep(c.bufC[:0], host, toHost, false)[:0]
		c.bufC = c.sweep(c.bufC[:0], host, byHost, true)[:0]
		hubs = append(hubs, hub{skipA: toHost, skipB: byHost, nearA: nearA << 2, nearB: nearB << 2})
	}
	best := 0
	var areas [3][]int32
	for k, hb := range hubs {
		area := c.area[k][:0]
		cone := c.bufC[:0]
		for _, x := range xs {
			if c.cbits[x]&hb.skipA == 0 {
				area = append(area, x)
				cone = c.sweep(cone, x, hb.nearA, true)
			}
		}
		for _, z := range cone {
			if c.cbits[z]&inY != 0 && c.cbits[z]&hb.skipB != 0 {
				area = append(area, z) // in Y, below A, and not listed with B
			}
		}
		cone = cone[:0]
		for _, y := range ys {
			if c.cbits[y]&hb.skipB == 0 {
				area = append(area, y)
				cone = c.sweep(cone, y, hb.nearB, false)
			}
		}
		for _, z := range cone {
			if c.cbits[z]&inX != 0 && c.cbits[z]&hb.skipA != 0 {
				area = append(area, z)
			}
		}
		c.bufC = cone[:0]
		areas[k], c.area[k] = area, area[:0]
		if len(area) < len(areas[best]) {
			best = k
		}
	}
	for _, x := range areas[best] {
		c.delta.Touched = append(c.delta.Touched, c.first(x))
	}
}
