// Compiler scenario in mini-C: the paper's Figure 1/2 running example, as
// compiled by examples/compiler. The list head is allocated in main, the
// tail nodes in create_10_node_list; free_all_but_head frees every node
// but the head, and main then reads p->next->val through a freed node.
//
// The analysis keeps the head and tail allocation sites apart: it proves
// the never-freed head elidable and reports the use in main as POSSIBLE
// (p itself never dangles; the node p->next reaches may be freed), with
// an interprocedural witness from the free in free_all_but_head to the
// use in main.
struct s { int val; struct s *next; };

void create_10_node_list(struct s *p) {
  int i;
  struct s *q = p;
  for (i = 0; i < 9; i = i + 1) {
    q->next = (struct s*)malloc(sizeof(struct s));
    q = q->next;
  }
  q->next = NULL;
}

void free_all_but_head(struct s *p) {
  struct s *q = p->next;
  while (q != NULL) {
    struct s *n = q->next;
    free(q);
    q = n;
  }
}

void g(struct s *p) {
  p->next = (struct s*)malloc(sizeof(struct s));
  create_10_node_list(p);
  free_all_but_head(p);
}

void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  g(p);
  p->next->val = 5;
  print_int(p->next->val);
}
