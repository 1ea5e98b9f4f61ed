package transport

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain runs the suite, then requires every goroutine the tests
// started — fake servers, pooled connections, dial and call watchers — to have
// exited within a bounded deadline. A leak fails the package with the
// stacks of everything still running. Fuzzing runs are exempt: the fuzz
// engine keeps its own signal watcher running.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if flag.Lookup("test.fuzz").Value.String() != "" || flag.Lookup("test.fuzzworker").Value.String() == "true" {
		os.Exit(code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for code == 0 && runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutines did not settle: %d running, %d before the tests\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
		time.Sleep(5 * time.Millisecond)
	}
	os.Exit(code)
}
