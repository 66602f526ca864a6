package obs

import (
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"strings"
)

// NewLogger builds the binaries' structured logger: leveled, with a text
// or JSON handler. level accepts the slog spellings ("debug", "info",
// "warn", "error", case-insensitive, with optional offsets like
// "info+2"); format is "text" or "json".
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("obs: bad log level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: bad log format %q (want text or json)", format)
	}
	return slog.New(h), nil
}

// BuildInfo summarises debug.ReadBuildInfo for status endpoints: the Go
// toolchain, the main module version, and the VCS revision/time when the
// binary was built from a checkout.
func BuildInfo() map[string]string {
	out := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["go"] = bi.GoVersion
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified":
			out[s.Key] = s.Value
		}
	}
	return out
}
