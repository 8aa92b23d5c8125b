package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the shared slog logger the daemons use: leveled,
// either human-readable text or JSON, written to w. level is one of
// "debug", "info", "warn", "error" (empty selects info).
func NewLogger(w io.Writer, level string, jsonFormat bool) (*slog.Logger, error) {
	lvl, err := parseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h), nil
}

// parseLevel maps a level name onto slog.Level.
func parseLevel(level string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", level)
	}
}

// Logf adapts a slog logger to the func(format, args...) debug-logging
// hooks the lower layers (netmedium, telemetry) expose, at debug level.
func Logf(log *slog.Logger) func(format string, args ...any) {
	if log == nil {
		return nil
	}
	return func(format string, args ...any) {
		log.Debug(fmt.Sprintf(format, args...))
	}
}
