//go:build !amd64

package transform

// satdTiles is the arithmetic of SATD. Off amd64 there is no kernel:
// the Go loop is the only path.
func satdTiles(res []int32, w, h int) int32 { return satdGeneric(res, w, h) }
