// Webserver scenario in mini-C: the buggy connection handler from
// examples/webserver. A response buffer is freed after the first send,
// then the retransmit path reads it — a classic server use-after-free,
// DEFINITE under the static analysis.
void main() {
  char *response = malloc(1024);
  int i;
  for (i = 0; i < 1024; i = i + 1) response[i] = (char)(65 + i % 26);
  // First send succeeds...
  int sent = 0;
  for (i = 0; i < 1024; i = i + 1) sent = sent + response[i];
  free(response);
  // ...then a retransmit uses the freed buffer.
  int resent = response[128];
  print_int(resent);
}
