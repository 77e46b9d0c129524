package main

import (
	"runtime"
	"time"
)

// The reference box is a shared VM whose speed changes under the
// benchmark: for minutes at a time every workload's CPU time per op
// reads 25–35% higher, uniformly across latency quantiles, with no
// steal reported — a neighbour on the core's other hardware thread, as
// far as a guest can tell. Ten runs that straddle such a change spread
// past any bound the contract allows, and nothing inside one run can
// average it away. So every run carries its own yardstick: between ops
// each client spends one part in refDuty of its time in refKernel, a
// fixed piece of codec-shaped work that belongs to the benchmark, not
// to the program under test, and the run's host factor is the kernel's
// mean time over refNominalMS. Host-time rows are reported at nominal
// host speed (divided, or for rates multiplied, by the factor). An
// optimisation in the program moves the rows and not the kernel; a
// slow minute on the host moves both and cancels.

const (
	// refNominalMS is refKernel's time on the reference box in a quiet
	// minute. It only fixes the scale of the reported numbers.
	refNominalMS = 0.6
	// refDuty: a client spends 1/refDuty of a pass in the kernel.
	refDuty = 20

	refW, refH = 160, 96
)

// hostRef is one client's reference state: two frames a few pixels
// apart and the scratch the kernel reuses, so it allocates nothing and
// the allocation rows stay exact.
type hostRef struct {
	a, b []byte
	res  [256]int32
	sink uint64
}

func newHostRef(seed uint64) *hostRef {
	r := &hostRef{a: make([]byte, refW*refH), b: make([]byte, refW*refH)}
	s := splitmix{state: seed}
	for i := range r.a {
		x, y := i%refW, i/refW
		n := s.next()
		r.a[i] = byte((x*3+y*5)&0x7f) + byte(n>>58)
		r.b[i] = byte(((x+2)*3+(y+1)*5)&0x7f) + byte(n>>50&0x3f)
	}
	return r
}

// kernel is one reference unit: per 16×16 block a ±3 motion search by
// SAD with early exit, the residual, four 8×8 integer butterflies and
// a quantiser — branchy, table-free, high-IPC integer code over a
// cache-resident frame, which is what slows with the encoders when the
// host does (a dependent multiply chain or a DRAM walk does not).
//
// FROZEN: every reported host-time number is a multiple of this
// function's speed. Changing it rescales the whole trajectory.
func (r *hostRef) kernel() {
	var acc uint64
	res := &r.res
	for by := 0; by+16 <= refH; by += 16 {
		for bx := 0; bx+16 <= refW; bx += 16 {
			best, bdx, bdy := int(^uint(0)>>1), 0, 0
			for dy := -3; dy <= 3; dy++ {
				for dx := -3; dx <= 3; dx++ {
					x0, y0 := bx+dx, by+dy
					if x0 < 0 || y0 < 0 || x0+16 > refW || y0+16 > refH {
						continue
					}
					sad := 0
					for y := 0; y < 16 && sad < best; y++ {
						pa := r.a[(by+y)*refW+bx : (by+y)*refW+bx+16]
						pb := r.b[(y0+y)*refW+x0 : (y0+y)*refW+x0+16]
						for x := 0; x < 16; x++ {
							d := int(pa[x]) - int(pb[x])
							if d < 0 {
								d = -d
							}
							sad += d
						}
					}
					if sad < best {
						best, bdx, bdy = sad, dx, dy
					}
				}
			}
			for y := 0; y < 16; y++ {
				for x := 0; x < 16; x++ {
					res[y*16+x] = int32(r.a[(by+y)*refW+bx+x]) - int32(r.b[(by+bdy+y)*refW+bx+bdx+x])
				}
			}
			for blk := 0; blk < 4; blk++ {
				ox, oy := (blk&1)*8, (blk>>1)*8
				for pass := 0; pass < 2; pass++ { // rows, then columns
					for i := 0; i < 8; i++ {
						var v [8]int32
						for j := 0; j < 8; j++ {
							if pass == 0 {
								v[j] = res[(oy+i)*16+ox+j]
							} else {
								v[j] = res[(oy+j)*16+ox+i]
							}
						}
						s0, s1, s2, s3 := v[0]+v[7], v[1]+v[6], v[2]+v[5], v[3]+v[4]
						d0, d1, d2, d3 := v[0]-v[7], v[1]-v[6], v[2]-v[5], v[3]-v[4]
						o := [8]int32{
							s0 + s1 + s2 + s3, d0*3 + d1*2 + d2 + d3>>1,
							s0 - s3 + (s1-s2)>>1, d0*2 - d1 - d3*3,
							s0 - s1 - s2 + s3, d0 - d1*3 + d2*2,
							(s0-s3)>>1 - s1 + s2, d0>>1 - d1 + d2*3 - d3*2,
						}
						for j := 0; j < 8; j++ {
							if pass == 0 {
								res[(oy+i)*16+ox+j] = o[j]
							} else {
								res[(oy+j)*16+ox+i] = o[j]
							}
						}
					}
				}
			}
			for i, c := range res {
				if q := c / int32(8+i%16); q != 0 {
					acc += uint64(q&0xff) + 1
				}
			}
		}
	}
	r.sink += acc
}

// refMeter is one client's reference account for one pass.
type refMeter struct {
	spent time.Duration
	calls int
}

// catchUp runs the kernel until the client has spent its share of the
// pass so far in it. It yields before every call, so a call starts on a
// fresh scheduler quantum and is never preempted half way: what is
// timed is the kernel, not the run queue.
func (m *refMeter) catchUp(r *hostRef, passStart time.Time) {
	for m.spent*refDuty < time.Since(passStart) {
		runtime.Gosched()
		t0 := time.Now()
		r.kernel()
		m.spent += time.Since(t0)
		m.calls++
	}
}
