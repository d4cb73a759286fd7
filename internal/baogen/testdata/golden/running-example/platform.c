#include <platform.h>

struct platform_desc platform = {
  .cpu_num = 2,
  .region_num = 2,
  .regions =  (struct mem_region[]) {
    { .base = 0x40000000, .size = 0x20000000 },
    { .base = 0x60000000, .size = 0x20000000 },
  },

  .console = { .base = 0x20000000 },

  .arch = {
    .clusters =  {
      .num = 1, .core_num = (uint8_t[]) {2}
    },
  }
};
