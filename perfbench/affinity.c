/* CPU affinity for the benchmark's processes (see Cpu). */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>

/* The CPU set the process was started with, saved on first use. */
static cpu_set_t original;
static int saved = -1;

static int save(void)
{
  if (saved < 0) saved = sched_getaffinity(0, sizeof original, &original) == 0;
  return saved;
}
#endif

/* The CPUs of the set the process was started with, in increasing
   order; empty where CPU affinity is unavailable. */
value perfbench_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(arr);
  int n = 0;
#ifdef __linux__
  if (save()) n = CPU_COUNT(&original);
#endif
  arr = caml_alloc_tuple(n);
#ifdef __linux__
  for (int cpu = 0, i = 0; i < n && cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &original)) Store_field(arr, i++, Val_int(cpu));
#endif
  CAMLreturn(arr);
}

/* Pin the calling thread to one CPU; processes it starts afterwards
   inherit the pin. Returns whether that worked. */
value perfbench_pin(value cpu)
{
#ifdef __linux__
  if (save()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(Int_val(cpu), &set);
    return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
  }
#endif
  (void)cpu;
  return Val_false;
}

/* Give the calling thread back the CPU set the process was started with. */
value perfbench_unpin(value unit)
{
  (void)unit;
#ifdef __linux__
  if (save()) sched_setaffinity(0, sizeof original, &original);
#endif
  return Val_unit;
}
