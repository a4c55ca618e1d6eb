// Long-lived process scenario in mini-C: per-request buffers churn through
// a loop that allocates and frees each one, and a pointer to one mid-run
// request is kept past its free — the stale pointer examples/longlived
// probes after the churn. The read after the loop is POSSIBLE (the keep
// happens on only one iteration's branch, so the register is
// may-dangling, not must), and the finding carries the free-to-use
// witness path.
void main() {
  int i;
  int *stale = NULL;
  for (i = 0; i < 100; i = i + 1) {
    int *req = (int*)malloc(sizeof(int));
    req[0] = i;
    free(req);
    if (i == 50) {
      stale = req;
    }
  }
  print_int(stale[0]);
}
