// Quickstart scenario in mini-C: one object allocated, used, freed, then
// used again — the straight-line use-after-free the quickstart example
// triggers through the direct API. The static analysis flags the final
// read as DEFINITE-UAF.
void main() {
  int *counter = (int*)malloc(sizeof(int));
  counter[0] = 41;
  counter[0] = counter[0] + 1;
  print_int(counter[0]);
  free(counter);
  print_int(counter[0]);
}
