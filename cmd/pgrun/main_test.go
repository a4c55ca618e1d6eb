package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunWorkloadDetectMode(t *testing.T) {
	code, err := run("detect", "running-example", false, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (detected)", code)
	}
}

func TestRunWorkloadNativeMode(t *testing.T) {
	code, err := run("native", "running-example", true, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (silent corruption)", code)
	}
}

func TestRunSourceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.c")
	src := `void main() { print_int(7); }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"detect", "native", "pa", "detect-nopa", "static"} {
		code, err := run(mode, "", false, []string{path})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if code != 0 {
			t.Fatalf("%s: exit = %d", mode, code)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run("bogus", "running-example", false, nil); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := run("detect", "no-such-workload", false, nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := run("detect", "", false, nil); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := run("detect", "", false, []string{"/nonexistent.c"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunCompileError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(path, []byte("void main() { undefined(); }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run("detect", "", false, []string{path}); err == nil {
		t.Fatal("compile error not surfaced")
	}
}
