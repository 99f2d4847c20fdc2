package obs

import (
	"runtime"
	"runtime/debug"
)

// Version returns the build's version string: the main module version
// when built from a module proxy, otherwise the VCS revision (short)
// recorded by the Go toolchain, otherwise "devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// RegisterBuildInfo publishes the eta2_build_info gauge (value always 1;
// the build metadata lives in the labels, the Prometheus idiom for
// joining version info onto other series). Idempotent.
func RegisterBuildInfo(r *Registry) {
	v, gv := Version(), runtime.Version()
	r.GaugeVec("eta2_build_info", "Build metadata; the value is always 1.",
		Label("version", v), Label("goversion", gv)).With(v, gv).Set(1)
}
