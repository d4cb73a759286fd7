#include <platform.h>

struct platform_desc platform = {
  .cpu_num = -9223372036854775808,
  .region_num = 2,
  .regions =  (struct mem_region[]) {
    { .base = 0xffffffffffffffff, .size = 0xffffffffffffffff },
    { .base = 0x0, .size = 0x0 },
  },

  .console = { .base = 0xffffffffffffffff },

  .arch = {
    .clusters =  {
      .num = 2, .core_num = (uint8_t[]) {-9223372036854775808, 9223372036854775807}
    },
  }
};
