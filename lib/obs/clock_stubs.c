/* Monotonic nanosecond clock for Gncg_obs.Clock. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double gncg_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value gncg_clock_monotonic_ns_byte(value unit)
{
  return caml_copy_double(gncg_clock_monotonic_ns(unit));
}
