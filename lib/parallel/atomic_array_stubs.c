/* Atomic read-modify-write on one cell of an OCaml [int array].

   OCaml ints are immediates (tagged [2n + 1] words), so a cell can be
   updated in place with the compiler's word-sized atomics: no write
   barrier is needed and the GC never looks at the payload. Both stubs
   are [noalloc], so no GC can move the array while they run. */

#include <caml/mlvalues.h>

value graphit_atomic_cas(value cells, value i, value expected, value desired)
{
  volatile value *cell = &Field(cells, Long_val(i));
  return Val_bool(__atomic_compare_exchange_n(cell, &expected, desired, 0,
                                              __ATOMIC_SEQ_CST,
                                              __ATOMIC_SEQ_CST));
}

/* [Val_long(n) + (Val_long(d) - 1) = Val_long(n + d)], wrapping modulo
   2^63 exactly like OCaml's own [+]. */
value graphit_atomic_fetch_add(value cells, value i, value delta)
{
  volatile value *cell = &Field(cells, Long_val(i));
  return __atomic_fetch_add(cell, delta - 1, __ATOMIC_SEQ_CST);
}
