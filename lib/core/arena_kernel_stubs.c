/* The conflict-count step of the arena kernel (see arena_kernel.ml).

   One warm occurrence of an id [u], last seen in slot [p], scans the
   slot words from [p]'s to the one holding [next_slot - 1]. In each
   word it adds the alive slots after [p] to level 0, then keeps only
   the slots whose plane [l] agrees with bit [l] of [au] xor the word's
   base address and adds those to level [l + 1], until the mask empties
   or level [planes] is counted. [bits] holds [stride] = [planes] + 2
   words per slot word: the alive mask, the planes, the base address.

   The result packs two counts: [dead * 64 + (top + 1)], where [top] is
   the deepest level counted (-1 when no slot is counted) and [dead] the
   number of all-dead words scanned. [top + 1] is at most [planes] + 1,
   and [planes] stays below the 62-bit address width, so it fits in the
   low six bits.

   The step reads and writes only the two bigarrays' data, raises
   nothing and allocates nothing, so it is declared [@@noalloc] with
   untagged int arguments: a plain C call, with no runtime transition.
   On x86-64 Linux the body is compiled twice, with and without the
   popcnt instruction, and the dynamic loader picks one at start-up. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#if defined(__x86_64__) && defined(__linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef POPCNT_CLONES
#define POPCNT_CLONES
#endif

#define POPCOUNT(m) ((intnat)__builtin_popcountll(m))

/* The slots of mask [m] whose plane [l] agrees with bit [l] of [x]. */
#define NARROW(m, word, x, l) ((m) & ~((uint64_t)(word)[1 + (l)] ^ -(((x) >> (l)) & 1)))

/* Levels 0 .. SHALLOW-1 are counted for every word without a branch;
   a word still counting at level SHALLOW is queued, up to DEEP words
   at a time, and finished one level at a time. */
#define SHALLOW 8
#define DEEP 64

/* A word still counting at level SHALLOW: its mask there and [x]. */
struct deep {
  const intnat *word;
  uint64_t m, x;
};

/* Counts one word from level [l], whose mask [m] is nonzero, and
   returns the deepest level counted. */
static inline __attribute__((always_inline)) intnat count_from(const intnat *word, uint64_t m,
                                                               uint64_t x, intnat l,
                                                               intnat planes,
                                                               intnat *depth_count)
{
  for (;;) {
    depth_count[l] += POPCOUNT(m);
    if (l == planes) return l;
    m = NARROW(m, word, x, l);
    if (m == 0) return l;
    l++;
  }
}

/* Counts the [n] queued words from level SHALLOW on, deepening [top]. */
static inline __attribute__((always_inline)) intnat finish_deep(const struct deep *deep, int n,
                                                                intnat planes,
                                                                intnat *depth_count,
                                                                intnat top)
{
  for (int i = 0; i < n; i++) {
    intnat l = count_from(deep[i].word, deep[i].m, deep[i].x, SHALLOW, planes, depth_count);
    if (l > top) top = l;
  }
  return top;
}

POPCNT_CLONES
intnat dse_count_conflicts(value v_bits, intnat stride, intnat planes, intnat au, intnat p,
                           intnat next_slot, value v_depth_count)
{
  const intnat *bits = (const intnat *)Caml_ba_data_val(v_bits);
  intnat *depth_count = (intnat *)Caml_ba_data_val(v_depth_count);
  intnat first = p >> 6, last = (next_slot - 1) >> 6;
  intnat top = -1, dead = 0;
  /* the slots after [p] in its word; every slot in later words */
  uint64_t after = ~((UINT64_C(2) << (p & 63)) - 1);
  if (planes < SHALLOW - 1) {
    for (intnat w = first; w <= last; w++, after = ~UINT64_C(0)) {
      const intnat *word = bits + w * stride;
      uint64_t m = (uint64_t)word[0];
      if (m == 0) {
        dead++;
        continue;
      }
      m &= after;
      if (m == 0) continue;
      intnat l = count_from(word, m, (uint64_t)(au ^ word[1 + planes]), 0, planes, depth_count);
      if (l > top) top = l;
    }
    return dead * 64 + (top + 1);
  }
  /* Most words empty between levels 4 and 9, at a level no branch
     predicts. So the shallow levels run the same straight-line code for
     every word, summing into registers, and only the words still
     counting below them pay a loop with an unpredictable exit. */
  intnat c[SHALLOW] = {0};
  struct deep deep[DEEP];
  int n = 0;
  for (intnat w = first; w <= last; w++, after = ~UINT64_C(0)) {
    const intnat *word = bits + w * stride;
    uint64_t m = (uint64_t)word[0];
    if (m == 0) {
      dead++;
      continue;
    }
    m &= after;
    uint64_t x = (uint64_t)(au ^ word[1 + planes]);
    c[0] += POPCOUNT(m);
#pragma GCC unroll 8
    for (int l = 1; l < SHALLOW; l++) {
      m = NARROW(m, word, x, l - 1);
      c[l] += POPCOUNT(m);
    }
    if (planes >= SHALLOW) {
      deep[n].word = word;
      deep[n].m = NARROW(m, word, x, SHALLOW - 1);
      deep[n].x = x;
      n += deep[n].m != 0;
      if (n == DEEP) {
        top = finish_deep(deep, n, planes, depth_count, top);
        n = 0;
      }
    }
  }
  top = finish_deep(deep, n, planes, depth_count, top);
  for (int l = 0; l < SHALLOW; l++) {
    depth_count[l] += c[l];
    if (c[l] > 0 && l > top) top = l;
  }
  return dead * 64 + (top + 1);
}

value dse_count_conflicts_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(dse_count_conflicts(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                                      Long_val(argv[3]), Long_val(argv[4]), Long_val(argv[5]),
                                      argv[6]));
}
