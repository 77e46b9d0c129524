// Package env is vclint's fixture for detflow's host-environment scope:
// such reads are findings in deterministic packages, in function
// bodies and package-level var initializers alike.
package env

import (
	"os"
	"runtime"
)

var tag = os.Getenv("VCPROF_TAG") // want `detflow: host-dependent os\.Getenv in deterministic code`

// Workers sizes a pool from the host CPU count.
func Workers() int {
	return runtime.NumCPU() // want `detflow: host-dependent runtime\.NumCPU`
}

// Tag mixes hostname and environment into output.
func Tag() string {
	host, _ := os.Hostname()              // want `detflow: host-dependent os\.Hostname`
	return host + os.Getenv("VCPROF_TAG") // want `detflow: host-dependent os\.Getenv`
}

// Pid records the process id.
func Pid() int {
	return os.Getpid() // want `detflow: host-dependent os\.Getpid`
}
