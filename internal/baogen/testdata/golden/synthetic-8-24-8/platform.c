#include <platform.h>

struct platform_desc platform = {
  .cpu_num = 8,
  .region_num = 1,
  .regions =  (struct mem_region[]) {
    { .base = 0x40000000, .size = 0x40000000 },
  },

  .console = { .base = 0x10000000 },

  .arch = {
    .clusters =  {
      .num = 1, .core_num = (uint8_t[]) {8}
    },
  }
};
