#ifndef _DT_BINDINGS_CLOCK_DEMO_CLK_H
#define _DT_BINDINGS_CLOCK_DEMO_CLK_H

#define DEMO_CLK_CPU 0
#define DEMO_CLK_UART 1
#define DEMO_CLK_I2C 2
#define DEMO_CLK_SPI 3

/* Helper used by boards to pick a divider-encoded rate. */
#define DEMO_CLK_DIV(base, div) ((base) / (div))

#endif
