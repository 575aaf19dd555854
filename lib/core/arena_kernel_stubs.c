/* The per-reference work of the arena kernel (see arena_kernel.ml): the
   conflict count of a warm occurrence with its recording, the placement
   of a slot, and the compaction of the slot words.

   [bits] holds [planes] + 1 words per 62-slot word: the alive mask,
   then one bit-plane per address bit. Bit [b] of plane [l] is bit [l]
   of the address in the word's slot [b], so the slots that agree with
   address [au] on bit [l] are the bits where plane [l] equals the
   constant [-((au >> l) & 1)].

   One warm occurrence of an id [u], last seen in slot [p], scans the
   slot words from [p]'s to the one holding [next_slot - 1]. In each
   word it adds the alive slots after [p] to level 0, then keeps only
   the slots whose plane [l] agrees with bit [l] of [au] and adds those
   to level [l + 1], until the mask empties or level [planes] is
   counted.

   The count packs two numbers: [dead * 64 + (top + 1)], where [top] is
   the deepest level counted (-1 when no slot is counted) and [dead] the
   number of all-dead words scanned. [top + 1] is at most [planes] + 1,
   and [planes] is at most the 62-bit address width, so it fits in the
   low six bits.

   Every function reads and writes only bigarray data (and reads the
   OCaml array of histogram arenas), raises nothing and allocates
   nothing, so each is declared [@@noalloc] with untagged int
   arguments: a plain C call, with no runtime transition. On x86-64
   Linux the counting functions are compiled twice, with and without
   the popcnt instruction, and the dynamic loader picks one at start-up. */

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

#define SLOTS_PER_WORD 62

/* The agreement mask of address [au] at level [l]: all ones when its
   bit [l] is set, zero otherwise. */
#define AGREE(au, l) (-(((uint64_t)(au) >> (l)) & 1))

/* The slots of mask [m] whose plane [l] agrees with [a], [au]'s
   agreement mask at [l]. */
#define NARROW(m, word, a, l) ((m) & ~((uint64_t)(word)[1 + (l)] ^ (a)))

/* Levels 0 .. SHALLOW-1 are counted for every word without a branch;
   a word still counting at level SHALLOW is queued, up to DEEP words
   at a time, and finished one level at a time. */
#define SHALLOW 8
#define DEEP 64

/* A word still counting at level SHALLOW, and its mask there. */
struct deep {
  const intnat *word;
  uint64_t m;
};

/* Counts one word from level [l], whose mask [m] is nonzero, and
   returns the deepest level counted. */
static inline __attribute__((always_inline)) intnat count_from(const intnat *word, uint64_t m,
                                                               uint64_t au, intnat l,
                                                               intnat planes,
                                                               intnat *depth_count)
{
  for (;;) {
    depth_count[l] += POPCOUNT(m);
    if (l == planes) return l;
    m = NARROW(m, word, AGREE(au, l), l);
    if (m == 0) return l;
    l++;
  }
}

/* Counts the [n] queued words from level SHALLOW on, deepening [top]. */
static inline __attribute__((always_inline)) intnat finish_deep(const struct deep *deep, int n,
                                                                uint64_t au, intnat planes,
                                                                intnat *depth_count,
                                                                intnat top)
{
  for (int i = 0; i < n; i++) {
    intnat l = count_from(deep[i].word, deep[i].m, au, SHALLOW, planes, depth_count);
    if (l > top) top = l;
  }
  return top;
}

static inline __attribute__((always_inline)) intnat count(const intnat *bits, intnat planes,
                                                          uint64_t au, intnat p,
                                                          intnat next_slot,
                                                          intnat *depth_count)
{
  intnat stride = planes + 1;
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
      intnat l = count_from(word, m, au, 0, planes, depth_count);
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
    c[0] += POPCOUNT(m);
#pragma GCC unroll 8
    for (int l = 1; l < SHALLOW; l++) {
      m = NARROW(m, word, AGREE(au, l - 1), l - 1);
      c[l] += POPCOUNT(m);
    }
    if (planes >= SHALLOW) {
      deep[n].word = word;
      deep[n].m = NARROW(m, word, AGREE(au, SHALLOW - 1), SHALLOW - 1);
      n += deep[n].m != 0;
      if (n == DEEP) {
        top = finish_deep(deep, n, au, planes, depth_count, top);
        n = 0;
      }
    }
  }
  top = finish_deep(deep, n, au, planes, depth_count, top);
  for (int l = 0; l < SHALLOW; l++) {
    depth_count[l] += c[l];
    if (c[l] > 0 && l > top) top = l;
  }
  return dead * 64 + (top + 1);
}

POPCNT_CLONES
intnat dse_count_conflicts(value v_bits, intnat planes, intnat au, intnat p, intnat next_slot,
                           value v_depth_count)
{
  return count((const intnat *)Caml_ba_data_val(v_bits), planes, (uint64_t)au, p, next_slot,
               (intnat *)Caml_ba_data_val(v_depth_count));
}

value dse_count_conflicts_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(dse_count_conflicts(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                                      Long_val(argv[3]), Long_val(argv[4]), argv[5]));
}

/* The whole warm step: count the conflicts, record each level [l] of
   [0 .. top] into its histogram arena [hists.(l)] (one more occurrence
   of count [depth_count[l]], raising [max_c[l]] to it) and clear it,
   then kill slot [p]. A count past its level arena's length stops the
   recording there, leaving that level and the deeper ones in
   [depth_count] for the caller to record after growing the arena.
   Returns [dead * 4096 + pending * 64 + (top + 1)], with [pending] the
   first level not recorded ([top + 1] when all are). */
POPCNT_CLONES
intnat dse_warm_step(value v_bits, intnat planes, intnat au, intnat p, intnat next_slot,
                     value v_depth_count, value v_hists, value v_max_c)
{
  intnat *bits = (intnat *)Caml_ba_data_val(v_bits);
  intnat *depth_count = (intnat *)Caml_ba_data_val(v_depth_count);
  intnat *max_c = (intnat *)Caml_ba_data_val(v_max_c);
  intnat r = count(bits, planes, (uint64_t)au, p, next_slot, depth_count);
  intnat top = (r & 63) - 1, l = 0;
  for (; l <= top; l++) {
    value h = Field(v_hists, l);
    intnat c = depth_count[l];
    if (c >= Caml_ba_array_val(h)->dim[0]) break;
    ((intnat *)Caml_ba_data_val(h))[c]++;
    if (c > max_c[l]) max_c[l] = c;
    depth_count[l] = 0;
  }
  bits[(p >> 6) * (planes + 1)] &= ~((intnat)1 << (p & 63));
  return (r >> 6) * 4096 + l * 64 + (top + 1);
}

value dse_warm_step_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(dse_warm_step(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                                Long_val(argv[3]), Long_val(argv[4]), argv[5], argv[6],
                                argv[7]));
}

/* Marks [slot] alive and ORs the one-bits of address [a] below
   [planes] into its planes, which are clear: a slot is written once
   between zeroings. */
value dse_place(value v_bits, intnat planes, intnat slot, intnat a)
{
  intnat *word = (intnat *)Caml_ba_data_val(v_bits) + (slot >> 6) * (planes + 1);
  uint64_t bit = UINT64_C(1) << (slot & 63);
  uint64_t x = (uint64_t)a & ((UINT64_C(1) << planes) - 1);
  word[0] |= bit;
  for (; x != 0; x &= x - 1) word[1 + __builtin_ctzll(x)] |= bit;
  return Val_unit;
}

value dse_place_byte(value v_bits, value v_planes, value v_slot, value v_a)
{
  return dse_place(v_bits, Long_val(v_planes), Long_val(v_slot), Long_val(v_a));
}

/* The six move masks of Hacker's Delight's compress (7-4) for mask
   [m]: [mv[i]] marks the bits that move right by [2^i] at stage [i]. */
static void compress_masks(uint64_t m, uint64_t mv[6])
{
  uint64_t mk = ~m << 1;
  for (int i = 0; i < 6; i++) {
    uint64_t mp = mk ^ (mk << 1);
    mp ^= mp << 2;
    mp ^= mp << 4;
    mp ^= mp << 8;
    mp ^= mp << 16;
    mp ^= mp << 32;
    mv[i] = mp & m;
    m = (m ^ mv[i]) | (mv[i] >> (1 << i));
    mk &= ~mp;
  }
}

/* The bits of [x] under the mask the move masks [mv] came from, packed
   into the low bits in order. */
static inline uint64_t compress(uint64_t x, uint64_t m, const uint64_t mv[6])
{
  x &= m;
  for (int i = 0; i < 6; i++) {
    uint64_t t = x & mv[i];
    x = (x ^ t) | (t >> (1 << i));
  }
  return x;
}

/* Squeezes the dead slots of words [from .. stop - 1] out, in order,
   starting at slot [from * 64]. Each source word's alive mask and
   planes are compressed by its alive mask and deposited at the next
   destination slot, split across the 62-slot word boundary when they
   straddle it; the moved slots' [id_of] and [slot_of] entries follow.
   A destination never lies past its source, so the words are rewritten
   in place: each source word is read and cleared before anything is
   deposited into it. Returns the next free slot. */
intnat dse_compact(value v_bits, intnat planes, value v_id_of, value v_slot_of, intnat from,
                   intnat stop)
{
  intnat *bits = (intnat *)Caml_ba_data_val(v_bits);
  int32_t *id_of = (int32_t *)Caml_ba_data_val(v_id_of);
  int32_t *slot_of = (int32_t *)Caml_ba_data_val(v_slot_of);
  intnat stride = planes + 1;
  intnat dw = from, off = 0; /* the destination: word [dw], slot [off] in it */
  for (intnat w = from; w < stop; w++) {
    intnat *src = bits + w * stride;
    uint64_t alive = (uint64_t)src[0];
    if (alive == 0) {
      for (intnat i = 0; i <= planes; i++) src[i] = 0;
      continue;
    }
    intnat *dst = bits + dw * stride, at = off, split = off + POPCOUNT(alive) > SLOTS_PER_WORD;
    for (uint64_t m = alive; m != 0; m &= m - 1) {
      int32_t u = id_of[w * 64 + __builtin_ctzll(m)];
      intnat d = dw * 64 + off;
      id_of[d] = u;
      slot_of[u] = (int32_t)d;
      if (++off == SLOTS_PER_WORD) {
        dw++;
        off = 0;
      }
    }
    uint64_t mv[6];
    compress_masks(alive, mv);
    for (intnat i = 0; i <= planes; i++) {
      uint64_t c = compress((uint64_t)src[i], alive, mv);
      src[i] = 0;
      dst[i] |= (intnat)((c << at) & ((UINT64_C(1) << SLOTS_PER_WORD) - 1));
      if (split) dst[stride + i] |= (intnat)(c >> (SLOTS_PER_WORD - at));
    }
  }
  return dw * 64 + off;
}

value dse_compact_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(dse_compact(argv[0], Long_val(argv[1]), argv[2], argv[3], Long_val(argv[4]),
                              Long_val(argv[5])));
}
