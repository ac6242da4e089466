/*
 * A padded fast-path unit for the precision-tier goldens and
 * BenchmarkExtractDeep. deep_fast and deep_budget exceed the extractor's
 * 512-path cap at every precision tier; deep_slow stays under it. Rung
 * pairs over one variable carry interval contradictions (pruned from
 * balanced up), the a == b nest carries a cross-term contradiction (pruned
 * at strict), and the switch, the bounded loops, the helper chain and the
 * struct-field writes exercise refinement, summaries and field invalidation
 * on deep paths.
 */
struct dq {
	int state;
	int len;
	int flags;
	struct dq *next;
};

int dq_count;
int dq_mode;

static int dq_h2(int x)
{
	if (x > 7)
		return x + 3;
	return x - 2;
}

static int dq_h1(struct dq *q, int x)
{
	q->len = x;
	dq_count = dq_count + 1;
	if (q->flags)
		return dq_h2(x - 1);
	return x - 4;
}

static int dq_alloc(int n)
{
	if (n > 64)
		return -1;
	return 0;
}

int deep_fast(struct dq *q, int gfp, int order, int a, int b)
{
	int acc = 3;
	int rev;
	int r0;
	int r1;
	int s0;
	int i0;
	int n0;
	int err;
	rev = 0;
	if (a > 12)
		acc = acc + 4;
	if (a < 3)
		acc = acc - 2;
	if (r0 >= 17)
		acc = acc ^ 9;
	if (a == b) {
		if (a > 5) {
			if (b < 3)
				gfp = 0;
		}
	}
	switch (s0) {
	case 2:
		acc = acc + 1;
		break;
	case 4:
		acc = acc * 3;
		break;
	case 13:
		acc = acc - 5;
		break;
	default:
		break;
	}
	if (s0 == 4)
		acc++;
	for (i0 = 0; i0 < n0; i0++)
		acc = acc + i0;
	if (r1 != 0 && r1 < 40)
		acc -= r1;
	err = dq_alloc(order);
	if (err)
		return err;
	acc = dq_h1(q, acc);
	if (q->state != 0 && q->len > 3)
		q->state = 1;
	q = q->next;
	if (q->state)
		acc += 2;
	if (!q || q->flags == 0)
		return acc;
	order = 1;
	return acc + order;
}

int deep_slow(struct dq *q, int gfp, int order, int a, int b)
{
	int acc = 0;
	int r2;
	int s1;
	if (b > 20)
		acc = acc + 2;
	if (b < 4)
		acc = acc - 1;
	if (r2 <= 9)
		acc = acc | 4;
	switch (s1) {
	case 1:
		acc = acc + 7;
		break;
	case 3:
		acc = acc - 7;
		break;
	default:
		break;
	}
	if (a != 0) {
		if (a == 0)
			dq_mode = 2;
	}
	if (gfp)
		acc = acc + gfp;
	if (dq_alloc(order) < 0)
		return -1;
	acc = dq_h1(q, acc);
	while (q->len > acc)
		q->len--;
	if (q->flags > 2 && q->flags < 1)
		gfp = 0;
	return acc + order;
}

/*
 * deep_budget spends the strict tier's per-function step budget before
 * the path cap: every path walks its own copy of a chain of constant
 * conditions, so the c > 10, c < 5 contradiction stops being pruned once
 * the state freezes.
 */
int deep_budget(struct dq *q, int gfp, int order, int c)
{
	int k = 3;
	int acc = 0;
	int m0;
	int m1;
	int m2;
	int m3;
	int m4;
	int m5;
	int m6;
	int m7;
	if (m0 > 3)
		acc = acc + 1;
	if (m1 > 4)
		acc = acc + 2;
	if (m2 > 5)
		acc = acc + 3;
	if (m3 > 6)
		acc = acc + 4;
	if (m4 > 7)
		acc = acc + 5;
	if (m5 > 8)
		acc = acc + 6;
	if (m6 > 9)
		acc = acc + 7;
	if (m7 > 10)
		acc = acc + 8;
	if (q->flags)
		gfp = 0;
	if (c > 10)
		acc = acc - 1;
	if (c < 5)
		acc = acc + 1;
	if (k == 3)
		acc = acc ^ 1;
	if (k == 3)
		acc = acc ^ 2;
	if (k == 3)
		acc = acc ^ 3;
	if (k == 3)
		acc = acc ^ 4;
	if (k == 3)
		acc = acc ^ 5;
	if (k == 3)
		acc = acc ^ 6;
	if (k == 3)
		acc = acc ^ 7;
	if (k == 3)
		acc = acc ^ 8;
	if (k == 3)
		acc = acc ^ 9;
	if (k == 3)
		acc = acc ^ 10;
	if (k == 3)
		acc = acc ^ 11;
	if (k == 3)
		acc = acc ^ 12;
	if (k == 3)
		acc = acc ^ 13;
	if (k == 3)
		acc = acc ^ 14;
	if (k == 3)
		acc = acc ^ 15;
	if (k == 3)
		acc = acc ^ 16;
	if (k == 3)
		acc = acc ^ 17;
	if (k == 3)
		acc = acc ^ 18;
	if (k == 3)
		acc = acc ^ 19;
	if (k == 3)
		acc = acc ^ 20;
	if (k == 3)
		acc = acc ^ 21;
	if (k == 3)
		acc = acc ^ 22;
	if (k == 3)
		acc = acc ^ 23;
	if (k == 3)
		acc = acc ^ 24;
	if (k == 3)
		acc = acc ^ 25;
	if (k == 3)
		acc = acc ^ 26;
	if (k == 3)
		acc = acc ^ 27;
	if (k == 3)
		acc = acc ^ 28;
	if (k == 3)
		acc = acc ^ 29;
	if (k == 3)
		acc = acc ^ 30;
	if (k == 3)
		acc = acc ^ 31;
	if (k == 3)
		acc = acc ^ 32;
	if (k == 3)
		acc = acc ^ 33;
	if (k == 3)
		acc = acc ^ 34;
	if (k == 3)
		acc = acc ^ 35;
	if (k == 3)
		acc = acc ^ 36;
	if (k == 3)
		acc = acc ^ 37;
	if (k == 3)
		acc = acc ^ 38;
	if (k == 3)
		acc = acc ^ 39;
	if (k == 3)
		acc = acc ^ 40;
	if (k == 3)
		acc = acc ^ 41;
	if (k == 3)
		acc = acc ^ 42;
	if (k == 3)
		acc = acc ^ 43;
	if (k == 3)
		acc = acc ^ 44;
	if (k == 3)
		acc = acc ^ 45;
	if (k == 3)
		acc = acc ^ 46;
	if (k == 3)
		acc = acc ^ 47;
	if (k == 3)
		acc = acc ^ 48;
	if (k == 3)
		acc = acc ^ 49;
	if (k == 3)
		acc = acc ^ 50;
	if (k == 3)
		acc = acc ^ 51;
	if (k == 3)
		acc = acc ^ 52;
	if (k == 3)
		acc = acc ^ 53;
	if (k == 3)
		acc = acc ^ 54;
	if (k == 3)
		acc = acc ^ 55;
	if (k == 3)
		acc = acc ^ 56;
	if (k == 3)
		acc = acc ^ 57;
	if (k == 3)
		acc = acc ^ 58;
	if (k == 3)
		acc = acc ^ 59;
	if (k == 3)
		acc = acc ^ 60;
	if (k == 3)
		acc = acc ^ 61;
	if (k == 3)
		acc = acc ^ 62;
	if (k == 3)
		acc = acc ^ 63;
	if (k == 3)
		acc = acc ^ 64;
	return acc + k;
}
