// Olden scenario in mini-C: a treeadd-style workload with a result record
// that outlives the tree. The tree nodes are freed after the sum; the
// result record never is. Both structures pass through the same helper
// (head), but the analysis keeps the two allocation sites separate: the
// tree stays guarded, the result record is proven never freed and elides
// shadow-page protection, and its reads are PROVEN-SAFE. (A unification
// analysis would merge both into one freed class, so neither would
// elide.)
struct tree { int val; struct tree *l; struct tree *r; };

struct tree *build(int depth) {
  struct tree *t = (struct tree*)malloc(sizeof(struct tree));
  t->val = 1;
  if (depth <= 1) {
    t->l = NULL;
    t->r = NULL;
    return t;
  }
  t->l = build(depth - 1);
  t->r = build(depth - 1);
  return t;
}

int sum(struct tree *t) {
  if (t == NULL) return 0;
  return t->val + sum(t->l) + sum(t->r);
}

void freetree(struct tree *t) {
  if (t == NULL) return;
  freetree(t->l);
  freetree(t->r);
  free(t);
}

int head(struct tree *t) {
  return t->val;
}

void main() {
  struct tree *t = build(8);
  struct tree *result = (struct tree*)malloc(sizeof(struct tree));
  result->val = sum(t) + head(t);
  freetree(t);
  print_int(head(result));
}
